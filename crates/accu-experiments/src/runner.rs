//! The experiment runner: sampled networks × repeated attacks,
//! parallelized over CPU cores, folded into [`TraceAccumulator`]s.
//!
//! The runner degrades gracefully rather than aborting: per-network
//! panics and dataset/protocol errors are quarantined into a
//! [`NetworkFailure`] report, and long runs can checkpoint each
//! completed network to a JSONL file (see
//! [`Checkpoint`](crate::Checkpoint)) so a killed run resumes without
//! recomputing finished work.
//!
//! ## Scheduling and self-healing
//!
//! The unit of work is one episode chunk of one network. Only chunk 0 of
//! each network is queued up front, in index order; its claimer builds
//! the network and then queues the sibling chunks at the front, so no
//! claimer ever waits for a build. The queue caps concurrent builds at
//! ⌈workers / chunks⌉, so idle workers join the network just built.
//!
//! Each worker contains its own failures: a panic while it holds a chunk
//! is caught, and the worker retries that chunk after a capped
//! exponential pause (reusing [`RetryPolicy`] semantics), spending one of
//! the run's restarts. A network is quarantined only after one of its
//! chunks exhausts its attempt budget ([`SupervisorConfig`]). Chunk
//! completions fold **at most once** — a retry of a chunk that had
//! already filed its outcomes files nothing — so the aggregate (and
//! therefore every figure CSV) is byte-identical under any panic or
//! stall schedule. Only when the restart budget itself is exhausted does
//! the run fail, with a typed [`RunnerError::WorkerPanicked`].
//!
//! A soft deadline ([`RunOptions::deadline`]) turns overruns into
//! *graceful degradation*: networks not yet started when the deadline
//! passes are shed in ascending index order (the surviving set is a
//! prefix, independent of worker count), reported as `run.network`
//! events with status `shed`, and counted on the [`RunReport`] so
//! binaries can tag their output as degraded.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use accu_core::chaos::{chaos_metrics, ChaosPlan, WorkerFault};
use accu_core::policy::{
    Abm, AbmWeights, CentralityKind, CentralityPolicy, MaxDegree, PageRankPolicy, Random, Snowball,
};
use accu_core::{
    engine_metrics, repair_instance, run_attack_with, validate_metrics, AccuError, AccuInstance,
    AttackOptions, AttackOutcome, EpisodeScratch, FaultConfig, FaultPlan, Policy, RetryPolicy,
    TraceAccumulator, ValidationMode, Violation,
};
use accu_telemetry::obs::Observer;
use accu_telemetry::{
    Corr, CounterHandle, Event, GaugeHandle, HistogramHandle, Recorder, Severity, TraceTrack,
    TraceValue, Tracer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};

use crate::checkpoint::Checkpoint;

/// Metric names emitted by the experiment runner.
pub mod runner_metrics {
    /// Counter: sampled networks processed across all workers.
    pub const NETWORKS: &str = "runner.networks";
    /// Counter: attack episodes completed across all workers.
    pub const EPISODES: &str = "runner.episodes";
    /// Counter: worker threads spawned for the run.
    pub const WORKERS: &str = "runner.workers";
    /// Counter: networks quarantined after a panic or a dataset /
    /// protocol error (registered only when a failure occurs).
    pub const QUARANTINED: &str = "runner.quarantined";
    /// Counter: networks skipped because a resumed checkpoint already
    /// covered them (registered only on resume).
    pub const RESUMED: &str = "runner.resumed";
    /// Histogram: wall-clock nanoseconds per sampled network (graph
    /// generation + protocol + all repetitions).
    pub const NETWORK_NS: &str = "runner.network_ns";
    /// Gauge: networks currently in flight (initialized but not yet
    /// retired) — visible live on the `--metrics-addr` endpoint.
    pub const NETWORKS_INFLIGHT: &str = "runner.networks_inflight";
    /// Counter: chunk retries after a panic, each spending one of the
    /// run's restarts (registered only when a retry happens).
    pub const SUPERVISOR_RESTARTS: &str = "runner.supervisor.restarts";
    /// Counter: panics caught while a worker held a chunk.
    pub const SUPERVISOR_PANICS: &str = "runner.supervisor.worker_panics";
    /// Counter: networks shed by the soft deadline.
    pub const SUPERVISOR_SHED: &str = "runner.supervisor.shed_networks";
    /// Per-worker episode-throughput counter. Comparing these across
    /// workers exposes queue imbalance (ideally near-equal).
    pub fn worker_episodes(worker: usize) -> String {
        format!("runner.worker.{worker}.episodes")
    }
}

/// Telemetry handles for one runner worker, fetched once per thread.
struct WorkerTelemetry {
    networks: CounterHandle,
    episodes: CounterHandle,
    worker_episodes: CounterHandle,
    network_ns: HistogramHandle,
    networks_inflight: GaugeHandle,
}

impl WorkerTelemetry {
    fn new(recorder: &Recorder, worker: usize) -> Self {
        WorkerTelemetry {
            networks: recorder.counter(runner_metrics::NETWORKS),
            episodes: recorder.counter(runner_metrics::EPISODES),
            worker_episodes: recorder.counter(runner_metrics::worker_episodes(worker)),
            network_ns: recorder.histogram(runner_metrics::NETWORK_NS),
            networks_inflight: recorder.gauge(runner_metrics::NETWORKS_INFLIGHT),
        }
    }
}

/// Which policy to run — a cloneable, thread-shippable policy recipe.
///
/// # Examples
///
/// ```
/// use accu_experiments::PolicyKind;
/// assert_eq!(PolicyKind::MaxDegree.name(), "MaxDegree");
/// assert_eq!(PolicyKind::abm_balanced().name(), "ABM");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// ABM with explicit weights `(w_D, w_I)`.
    Abm {
        /// Direct-gain weight.
        wd: f64,
        /// Indirect-gain weight.
        wi: f64,
    },
    /// Classical pure greedy (`w_D = 1, w_I = 0`).
    Greedy,
    /// Highest-degree-first baseline.
    MaxDegree,
    /// PageRank-order baseline.
    PageRank,
    /// Uniform random baseline.
    Random,
    /// Static-centrality baseline (betweenness / closeness /
    /// eigenvector) — extensions beyond the paper's lineup.
    Centrality(CentralityKind),
    /// Local-knowledge snowball attacker (observation-only).
    Snowball,
}

impl PolicyKind {
    /// The paper's main ABM configuration, `w_D = w_I = 0.5`.
    pub fn abm_balanced() -> Self {
        PolicyKind::Abm { wd: 0.5, wi: 0.5 }
    }

    /// ABM parameterized by `w_I` with `w_D = 1 − w_I` (the Fig. 4/5
    /// sweep).
    pub fn abm_with_indirect(wi: f64) -> Self {
        PolicyKind::Abm { wd: 1.0 - wi, wi }
    }

    /// Display name used in figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Abm { .. } => "ABM",
            PolicyKind::Greedy => "Greedy",
            PolicyKind::MaxDegree => "MaxDegree",
            PolicyKind::PageRank => "PageRank",
            PolicyKind::Random => "Random",
            PolicyKind::Centrality(kind) => kind.name(),
            PolicyKind::Snowball => "Snowball",
        }
    }

    /// A checkpoint-stable identifier: unlike [`PolicyKind::name`],
    /// distinguishes ABM weight configurations.
    pub fn id(&self) -> String {
        match *self {
            PolicyKind::Abm { wd, wi } => format!("ABM[{wd:?},{wi:?}]"),
            other => other.name().to_string(),
        }
    }

    /// Instantiates the policy (Random gets the given seed).
    pub fn instantiate(&self, seed: u64) -> Box<dyn Policy + Send> {
        self.instantiate_recorded(seed, &Recorder::disabled())
    }

    /// Like [`PolicyKind::instantiate`], but heap-based policies (ABM,
    /// Greedy) additionally report their internal counters to
    /// `recorder`. A disabled recorder makes this identical to
    /// [`PolicyKind::instantiate`].
    pub fn instantiate_recorded(&self, seed: u64, recorder: &Recorder) -> Box<dyn Policy + Send> {
        self.instantiate_instrumented(seed, recorder, &TraceTrack::disabled())
    }

    /// Like [`PolicyKind::instantiate_recorded`], but heap-based
    /// policies (ABM, Greedy) additionally emit per-decision trace
    /// events (`decide`, `abm_observe`) onto `track` whenever its
    /// sampling gate is open. A disabled track makes this identical to
    /// [`PolicyKind::instantiate_recorded`].
    pub fn instantiate_instrumented(
        &self,
        seed: u64,
        recorder: &Recorder,
        track: &TraceTrack,
    ) -> Box<dyn Policy + Send> {
        match *self {
            PolicyKind::Abm { wd, wi } => {
                let mut abm = Abm::with_recorder(AbmWeights::new(wd, wi), recorder);
                abm.attach_tracer(track);
                Box::new(abm)
            }
            PolicyKind::Greedy => {
                let mut greedy = accu_core::policy::pure_greedy();
                greedy.attach_recorder(recorder);
                greedy.attach_tracer(track);
                Box::new(greedy)
            }
            PolicyKind::MaxDegree => Box::new(MaxDegree::new()),
            PolicyKind::PageRank => Box::new(PageRankPolicy::new()),
            PolicyKind::Random => Box::new(Random::new(seed)),
            PolicyKind::Centrality(kind) => Box::new(CentralityPolicy::new(kind)),
            PolicyKind::Snowball => Box::new(Snowball::new(seed)),
        }
    }

    /// The extended lineup: the paper's four plus pure greedy and the
    /// three extra centrality baselines.
    pub fn extended_lineup() -> Vec<PolicyKind> {
        let mut lineup = Self::paper_lineup();
        lineup.insert(1, PolicyKind::Greedy);
        lineup.extend([
            PolicyKind::Centrality(CentralityKind::Eigenvector),
            PolicyKind::Centrality(CentralityKind::Closeness),
            PolicyKind::Centrality(CentralityKind::Betweenness),
            PolicyKind::Snowball,
        ]);
        lineup
    }

    /// Whether one network's episodes may be split into chunks served
    /// by different workers: `true` when `reset` fully re-derives the
    /// policy's state from the attacker view, so a fresh instance per
    /// chunk behaves identically to one instance reused across the
    /// whole network. Random and Snowball advance a per-network RNG
    /// from episode to episode, so their networks run as one chunk.
    pub fn chunkable(&self) -> bool {
        !matches!(self, PolicyKind::Random | PolicyKind::Snowball)
    }

    /// The four algorithms compared in the paper's Fig. 2.
    pub fn paper_lineup() -> Vec<PolicyKind> {
        vec![
            PolicyKind::abm_balanced(),
            PolicyKind::PageRank,
            PolicyKind::MaxDegree,
            PolicyKind::Random,
        ]
    }
}

/// One experiment cell: a dataset, the parameter protocol, the budget,
/// the repetition counts, and the fault environment.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// Dataset (possibly scaled).
    pub dataset: DatasetSpec,
    /// Parameter-assignment protocol.
    pub protocol: ProtocolConfig,
    /// Request budget `k`.
    pub budget: usize,
    /// Number of independently sampled networks (paper: 100).
    pub network_samples: usize,
    /// Attack runs per sampled network (paper: 30).
    pub runs_per_network: usize,
    /// Master seed; every (network, run) derives its own stream.
    pub seed: u64,
    /// Fault environment every episode runs under. The default
    /// ([`FaultConfig::none`]) reproduces the paper's fault-free
    /// setting bit-for-bit.
    pub faults: FaultConfig,
    /// Attacker retry policy under transient failures (irrelevant when
    /// `faults` is none).
    pub retry: RetryPolicy,
    /// How sampled instances are checked against the paper's
    /// preconditions before any episode runs. [`ValidationMode::Off`]
    /// reproduces pre-validation behavior bit-for-bit; the default
    /// Lenient mode repairs violating instances deterministically and
    /// flags the λ-guarantee as void in telemetry.
    pub validation: ValidationMode,
}

impl FigureRun {
    /// Total attack episodes this run will simulate.
    pub fn episodes(&self) -> usize {
        self.network_samples * self.runs_per_network
    }

    /// The checkpoint cell label for this run with `policy`: every
    /// parameter that influences the result is encoded, so entries
    /// recorded under a different configuration can never be resumed
    /// into this one. The protocol is appended only when it differs
    /// from [`ProtocolConfig::default`], so default-protocol labels
    /// (and the checkpoints written under them) stay as they were.
    pub fn cell_label(&self, policy: PolicyKind) -> String {
        let retry = &self.retry;
        // The retry part spells out the `{:?}` text of the former
        // four-field `RetryPolicy`, so existing checkpoints still resume.
        let mut label = format!(
            "{}@{}|{}|n{}r{}k{}s{}|{:?}|RetryPolicy {{ max_retries: {}, backoff_base: {}, \
             backoff_cap: {}, jitter_pct: 0 }}|v={}",
            self.dataset.name(),
            self.dataset.node_count(),
            policy.id(),
            self.network_samples,
            self.runs_per_network,
            self.budget,
            self.seed,
            self.faults,
            retry.max_retries,
            retry.backoff_base,
            retry.backoff_cap,
            self.validation,
        );
        if self.protocol != ProtocolConfig::default() {
            label.push_str(&format!("|{:?}", self.protocol));
        }
        label
    }
}

/// Why a sampled network was dropped from the aggregate instead of
/// aborting the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkFailure {
    /// Index of the failed network.
    pub network: usize,
    /// Which stage failed: `"dataset"`, `"protocol"`, `"validate"`, or
    /// `"episodes"`.
    pub stage: &'static str,
    /// The error or panic message.
    pub message: String,
}

impl fmt::Display for NetworkFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network {} quarantined at stage {}: {}",
            self.network, self.stage, self.message
        )
    }
}

/// Errors surfaced by [`run_policy_with`].
#[derive(Debug)]
#[non_exhaustive]
pub enum RunnerError {
    /// A worker's chunk panicked with the run's restart budget
    /// ([`SupervisorConfig::max_restarts`]) already spent.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
        /// Its panic message.
        message: String,
        /// Networks that completed before the failure surfaced.
        completed_networks: usize,
    },
    /// The checkpoint file could not be created, read, or appended to.
    Checkpoint(std::io::Error),
    /// The run's [`FaultConfig`] is invalid.
    InvalidFaults(AccuError),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::WorkerPanicked {
                worker,
                message,
                completed_networks,
            } => write!(
                f,
                "experiment worker {worker} panicked: {message} \
                 ({completed_networks} networks completed before the failure)"
            ),
            RunnerError::Checkpoint(e) => write!(f, "checkpoint I/O failed: {e}"),
            RunnerError::InvalidFaults(e) => write!(f, "invalid fault config: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Checkpoint(e) => Some(e),
            RunnerError::InvalidFaults(e) => Some(e),
            RunnerError::WorkerPanicked { .. } => None,
        }
    }
}

/// Everything a run can carry besides the figure and the policy: the
/// instrumentation handles (recorder, tracer, lifecycle events), the
/// checkpoint, and the scheduling knobs. All handles are
/// cheap clones of `Arc` state; the disabled defaults make every piece a
/// no-op, so `RunOptions::default()` is the plain, uninstrumented run.
/// Set only what differs with struct-update syntax. No option changes
/// the aggregate: they observe, persist, or schedule.
///
/// # Examples
///
/// ```no_run
/// use accu_experiments::{run_policy_with, PolicyKind, RunOptions};
/// # let figure: accu_experiments::FigureRun = unimplemented!();
/// let report = run_policy_with(
///     &figure,
///     PolicyKind::abm_balanced(),
///     RunOptions {
///         max_workers: Some(1),
///         ..RunOptions::default()
///     },
/// )
/// .unwrap();
/// ```
#[derive(Debug)]
pub struct RunOptions<'a> {
    /// Metrics sink (counters, gauges, histograms).
    pub recorder: Recorder,
    /// Causal-trace sink.
    pub tracer: Tracer,
    /// Progress observer for the lifecycle events (`run.begin`,
    /// `run.network`, `run.end`, `run.fail`). Disabled by default:
    /// batch runs stay silent and build no event.
    pub events: Observer,
    /// Checkpoint to append completed networks to (and resume from).
    pub checkpoint: Option<&'a mut Checkpoint>,
    /// Cap on worker threads (`None` = available parallelism). A
    /// chunkable policy splits each network's episodes into this many
    /// chunks, or into one once the network outgrows the cache.
    pub max_workers: Option<usize>,
    /// Infrastructure chaos schedule (worker panics / stalls injected at
    /// chunk claim). The trivial default injects nothing at zero cost.
    pub chaos: ChaosPlan,
    /// Self-healing knobs: per-chunk attempt budget, restart budget and
    /// backoff.
    pub supervisor: SupervisorConfig,
    /// Soft deadline; once it passes, networks not yet started are shed
    /// instead of run (graceful degradation), except the first
    /// [`DEADLINE_MIN_NETWORKS`]. Networks start in ascending index
    /// order, so the survivors are a prefix of the sample list whatever
    /// the worker count. `None` never sheds.
    pub deadline: Option<Instant>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            recorder: Recorder::disabled(),
            tracer: Tracer::disabled(),
            events: Observer::disabled(),
            checkpoint: None,
            max_workers: None,
            chaos: ChaosPlan::none(),
            supervisor: SupervisorConfig::default(),
            deadline: None,
        }
    }
}

/// Backoff shape for the pause before a chunk retry: the attacker's
/// standard [`RetryPolicy`] schedule, `min(2^(n−1), 8)` units.
const RESTART_BACKOFF: RetryPolicy = RetryPolicy::standard();

/// How workers heal from panics.
///
/// A worker whose chunk panics retries that chunk in place after a
/// capped exponential pause (`backoff_unit × min(2^(n−1), 8)` for the
/// run's `n`-th restart). A chunk that panics `max_chunk_attempts`
/// times quarantines its whole network (stage `"supervisor"`); once
/// `max_restarts` retries have been spent, the next panic ends the run
/// with [`RunnerError::WorkerPanicked`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Times one chunk may panic before its network is quarantined.
    pub max_chunk_attempts: u32,
    /// Total chunk retries the workers may spend in one run.
    pub max_restarts: u32,
    /// Wall-clock length of one backoff unit.
    pub backoff_unit: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_chunk_attempts: 3,
            max_restarts: 32,
            backoff_unit: Duration::from_millis(25),
        }
    }
}

/// Networks below this index are never shed: a degraded run always
/// aggregates at least this many samples (clamped to the figure's
/// `network_samples`), so confidence intervals stay computable.
pub const DEADLINE_MIN_NETWORKS: usize = 2;

/// The full result of a hardened run: the aggregate plus everything
/// that went wrong or was skipped along the way.
#[derive(Debug)]
pub struct RunReport {
    /// Aggregated trace statistics over every completed network.
    pub accumulator: TraceAccumulator,
    /// Networks dropped by the quarantine, in index order.
    pub quarantined: Vec<NetworkFailure>,
    /// Networks whose results were loaded from the checkpoint rather
    /// than recomputed.
    pub resumed_networks: usize,
    /// Total networks contributing to the aggregate (resumed + fresh).
    pub completed_networks: usize,
    /// Freshly computed networks that violated a paper precondition and
    /// were repaired by the Lenient pass before running. A non-zero
    /// count means the `1 − e^{−λ}` guarantee does not cover those
    /// networks' contributions.
    pub repaired_networks: usize,
    /// Networks shed by the soft [`RunOptions::deadline`] before any
    /// episode ran (scheduling, not failure — they are not quarantined).
    pub shed_networks: usize,
    /// Chunk retries the workers spent healing panics, out of
    /// [`SupervisorConfig::max_restarts`].
    pub supervisor_restarts: usize,
}

impl RunReport {
    /// Whether output derived from this run should be tagged as
    /// degraded: the soft deadline shed at least one network, so the
    /// aggregate covers fewer samples than requested.
    pub fn degraded(&self) -> bool {
        self.shed_networks > 0
    }

    /// 95% normal-approximation confidence half-width of the mean total
    /// benefit (`1.96 × SE`; 0 below two episodes) — reported next to
    /// per-cell episode counts when a degraded aggregate ships.
    pub fn ci_half_width(&self) -> f64 {
        1.96 * self.accumulator.total_benefit_std_error()
    }
}

/// Runs `policy` over all sampled networks and repetitions of `figure`,
/// in parallel across worker threads, and returns the aggregated trace
/// statistics with everything that went wrong or was skipped along the
/// way. `opts` carries the instrumentation, the checkpoint (each
/// completed network is appended to it, and networks it already covers
/// are resumed instead of recomputed), and the scheduling knobs.
///
/// Deterministic given `figure.seed`: network `i` always uses the same
/// derived RNG stream — and, since policies are instantiated per
/// network, the same policy stream — regardless of thread scheduling.
/// The same seed is used across policies so every policy faces
/// identical networks, realizations, and fault plans (paired
/// comparison, variance reduction — and the paper's setup of evaluating
/// all algorithms on the same sample networks). Results are
/// bit-identical across every `max_workers` setting, and for every
/// tracer configuration: tracing only observes, never steers.
/// Non-chunkable policies (see [`PolicyKind::chunkable`]) always run
/// whole networks as a single chunk.
///
/// With an enabled tracer every worker gets its own [`TraceTrack`] (one
/// Perfetto thread track per worker), stage spans cover network
/// load/validate, episode chunks, the fold, and checkpoint appends, and
/// — on episodes selected by the tracer's sampling period — the
/// simulator and policy emit per-request and per-decision events
/// bracketed by `episode_begin`/`episode_end`. The progress stream of
/// [`RunOptions::events`] is byte-identical across worker counts: every
/// streamed field derives from the deterministic episode-order fold and
/// lines are reordered to network-index order before they are written.
///
/// The figure binaries reach this through
/// [`Telemetry::run`](crate::Telemetry::run), which passes every runner
/// flag and exits on any error.
///
/// # Errors
///
/// * [`RunnerError::InvalidFaults`] if `figure.faults` is out of range;
/// * [`RunnerError::Checkpoint`] if appending to the checkpoint fails;
/// * [`RunnerError::WorkerPanicked`] if a chunk panics with the run's
///   restart budget already spent.
pub fn run_policy_with(
    figure: &FigureRun,
    policy: PolicyKind,
    opts: RunOptions<'_>,
) -> Result<RunReport, RunnerError> {
    figure
        .faults
        .validate()
        .map_err(RunnerError::InvalidFaults)?;
    let RunOptions {
        recorder,
        tracer,
        events,
        checkpoint,
        max_workers,
        chaos,
        supervisor,
        deadline,
    } = opts;
    let cell = figure.cell_label(policy);
    let resumed: BTreeMap<usize, TraceAccumulator> = match &checkpoint {
        Some(ckpt) => ckpt
            .completed(&cell)
            .into_iter()
            .filter(|(net, acc)| *net < figure.network_samples && acc.budget() == figure.budget)
            .collect(),
        None => BTreeMap::new(),
    };
    if !resumed.is_empty() {
        recorder
            .counter(runner_metrics::RESUMED)
            .add(resumed.len() as u64);
    }
    events.emit(|| {
        Event::info("run.begin")
            .arg("cell", cell.clone())
            .arg("networks", figure.network_samples)
            .arg("episodes", figure.episodes() as u64)
    });
    // Resumed networks stream up front; the progress reorder buffer
    // interleaves them with freshly computed ones in index order.
    for (net, acc) in &resumed {
        events.emit(|| {
            network_event(Severity::Info, *net, "resumed")
                .arg("episodes", acc.runs() as u64)
                .arg("mean_benefit", acc.mean_total_benefit())
        });
    }
    let base_threads = max_workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);
    let chunks = if policy.chunkable() {
        footprint_chunks(base_threads, figure.dataset.node_count())
            .clamp(1, figure.runs_per_network.max(1))
    } else {
        1
    };
    // Only chunk 0 of each non-resumed network is queued, in index
    // order; its claimer builds the network and queues the siblings.
    let first_chunks: VecDeque<WorkItem> = (0..figure.network_samples)
        .filter(|net| !resumed.contains_key(net))
        .map(|net| WorkItem { net, chunk: 0 })
        .collect();
    let total_chunks = first_chunks.len() * chunks;
    // Spawn only as many workers as there are chunks, and report the
    // post-clamp count actually spawned.
    let threads = base_threads.min(total_chunks);
    recorder
        .counter(runner_metrics::WORKERS)
        .add(threads as u64);
    let slots: Vec<NetworkSlot> = (0..figure.network_samples)
        .map(|_| NetworkSlot::new(chunks))
        .collect();
    // Workers append completed networks through this shared handle; a
    // failed append parks the error here and disables checkpointing for
    // the rest of the run.
    let ckpt_shared: Mutex<Option<&mut Checkpoint>> = Mutex::new(checkpoint);
    let ckpt_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let queue = WorkQueue::new(first_chunks, threads.div_ceil(chunks));
    let results = SharedResults::new(total_chunks);
    let ctx = RunCtx {
        figure,
        policy,
        chunks,
        cell: &cell,
        recorder: &recorder,
        tracer: &tracer,
        events: &events,
        chaos,
        supervisor,
        deadline,
        slots: &slots,
        queue: &queue,
        results: &results,
        ckpt_shared: &ckpt_shared,
        ckpt_error: &ckpt_error,
    };
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let ctx = &ctx;
            scope.spawn(move || worker_loop(ctx, worker));
        }
    });
    let fresh = std::mem::take(&mut *results.done.lock().expect("results mutex poisoned"));
    let mut quarantined =
        std::mem::take(&mut *results.failures.lock().expect("results mutex poisoned"));
    let shed = std::mem::take(&mut *results.shed.lock().expect("results mutex poisoned"));
    let panicked = results
        .panicked
        .lock()
        .expect("results mutex poisoned")
        .take();
    let restarts = results.restarts.load(Ordering::Relaxed);
    let repaired_networks = results.repaired.load(Ordering::Relaxed);
    // Merge in network order: independent of thread scheduling, and
    // identical whether a network was computed fresh or resumed.
    let mut per_net: BTreeMap<usize, TraceAccumulator> = resumed;
    let resumed_networks = per_net.len();
    per_net.extend(fresh);
    let mut total = TraceAccumulator::new(figure.budget);
    for acc in per_net.values() {
        total.merge(acc);
    }
    quarantined.sort_by_key(|f| f.network);
    // An aborted run still closes its section: `run.fail` flushes the
    // networks that did complete, in index order.
    let fail = |why: String| {
        events.emit(|| {
            Event::error("run.fail")
                .arg("cell", cell.clone())
                .arg("completed", per_net.len())
                .msg(why)
        });
    };
    if let Some((worker, message)) = panicked {
        fail(format!(
            "worker {worker} panicked with the restart budget exhausted: {message}"
        ));
        return Err(RunnerError::WorkerPanicked {
            worker,
            message,
            completed_networks: per_net.len(),
        });
    }
    if let Some(e) = ckpt_error.lock().expect("error mutex poisoned").take() {
        fail(format!("checkpoint write failed: {e}"));
        return Err(RunnerError::Checkpoint(e));
    }
    events.emit(|| {
        Event::info("run.end")
            .arg("cell", cell.clone())
            .arg("completed", per_net.len())
            .arg("resumed", resumed_networks)
            .arg("quarantined", quarantined.len())
            .arg("shed", shed.len())
            .arg("episodes", total.runs())
    });
    Ok(RunReport {
        accumulator: total,
        quarantined,
        resumed_networks,
        completed_networks: per_net.len(),
        repaired_networks,
        shed_networks: shed.len(),
        supervisor_restarts: restarts as usize,
    })
}

/// Formats a violation list for a quarantine report: the count plus the
/// first few concrete violations.
fn violations_message(violations: &[Violation]) -> String {
    const SHOWN: usize = 3;
    let head: Vec<String> = violations
        .iter()
        .take(SHOWN)
        .map(|v| v.to_string())
        .collect();
    let mut message = format!(
        "{} paper-precondition violation(s): {}",
        violations.len(),
        head.join("; ")
    );
    if violations.len() > SHOWN {
        message.push_str(&format!("; … and {} more", violations.len() - SHOWN));
    }
    message
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker handles for the episode-engine counters.
struct EngineTelemetry {
    scratch_reuses: CounterHandle,
    scratch_allocs: CounterHandle,
    steals: CounterHandle,
    chunk_ns: HistogramHandle,
}

impl EngineTelemetry {
    fn new(recorder: &Recorder) -> Self {
        EngineTelemetry {
            scratch_reuses: recorder.counter(engine_metrics::SCRATCH_REUSES),
            scratch_allocs: recorder.counter(engine_metrics::SCRATCH_ALLOCS),
            steals: recorder.counter(engine_metrics::STEALS),
            chunk_ns: recorder.histogram(engine_metrics::CHUNK_NS),
        }
    }
}

/// One claimable unit: an episode chunk of one network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkItem {
    net: usize,
    chunk: usize,
}

/// The chunk queue: workers block on `pop`, a network's builder queues
/// its sibling chunks with `built`, and whoever accounts the last chunk
/// (or aborts the run) shuts the pool down with `close`.
///
/// Siblings go to the front, so the queue always reads "siblings, then
/// chunk 0s in index order". A chunk 0 is handed out only while fewer
/// than `max_builds` networks are building; an idle worker waits for
/// the running build's siblings instead of building a network of its
/// own (see [`footprint_chunks`]).
struct WorkQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    max_builds: usize,
}

struct QueueState {
    items: VecDeque<WorkItem>,
    /// Chunk 0s handed out whose network is not yet built, shed, or
    /// given up.
    building: usize,
    closed: bool,
}

impl WorkQueue {
    fn new(items: VecDeque<WorkItem>, max_builds: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items,
                building: 0,
                closed: false,
            }),
            available: Condvar::new(),
            max_builds: max_builds.max(1),
        }
    }

    /// Blocks until an item may be handed out or the queue is closed; a
    /// closed queue hands out nothing more.
    fn pop(&self) -> Option<WorkItem> {
        let mut st = self.state.lock().expect("work queue poisoned");
        loop {
            if st.closed {
                return None;
            }
            match st.items.front().copied() {
                Some(item) if item.chunk > 0 || st.building < self.max_builds => {
                    st.items.pop_front();
                    st.building += usize::from(item.chunk == 0);
                    return Some(item);
                }
                _ => st = self.available.wait(st).expect("work queue poisoned"),
            }
        }
    }

    /// Ends one network's build (built, failed, shed, or given up) and
    /// queues its `siblings`, in order, ahead of everything waiting.
    fn built(&self, siblings: impl DoubleEndedIterator<Item = WorkItem>) {
        let mut st = self.state.lock().expect("work queue poisoned");
        st.building -= 1;
        for item in siblings.rev() {
            st.items.push_front(item);
        }
        drop(st);
        self.available.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("work queue poisoned").closed = true;
        self.available.notify_all();
    }
}

/// Completion sinks shared by every worker.
struct SharedResults {
    done: Mutex<Vec<(usize, TraceAccumulator)>>,
    failures: Mutex<Vec<NetworkFailure>>,
    shed: Mutex<Vec<usize>>,
    repaired: AtomicUsize,
    /// Chunk retries spent so far, out of `max_restarts`.
    restarts: AtomicU32,
    /// The panic that found the restart budget spent: `(worker,
    /// message)`; the first one wins.
    panicked: Mutex<Option<(usize, String)>>,
    /// Chunks not yet accounted (completed, failed, shed, or
    /// abandoned); the worker that accounts the last one closes the
    /// queue.
    outstanding: AtomicUsize,
}

impl SharedResults {
    fn new(outstanding: usize) -> Self {
        SharedResults {
            done: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
            shed: Mutex::new(Vec::new()),
            repaired: AtomicUsize::new(0),
            restarts: AtomicU32::new(0),
            panicked: Mutex::new(None),
            outstanding: AtomicUsize::new(outstanding),
        }
    }
}

/// Everything the workers share for one run, bundled so it crosses the
/// `thread::scope` boundary as a single reference. `'ck` is the
/// checkpoint borrow threaded through the shared append handle.
struct RunCtx<'env, 'ck> {
    figure: &'env FigureRun,
    policy: PolicyKind,
    chunks: usize,
    cell: &'env str,
    recorder: &'env Recorder,
    tracer: &'env Tracer,
    /// Progress observer for the lifecycle events.
    events: &'env Observer,
    chaos: ChaosPlan,
    supervisor: SupervisorConfig,
    deadline: Option<Instant>,
    slots: &'env [NetworkSlot],
    queue: &'env WorkQueue,
    results: &'env SharedResults,
    ckpt_shared: &'env Mutex<Option<&'ck mut Checkpoint>>,
    ckpt_error: &'env Mutex<Option<std::io::Error>>,
}

impl RunCtx<'_, '_> {
    /// Accounts `n` more chunks; the call that accounts the last one
    /// closes the queue, so idle workers exit.
    fn account(&self, n: usize) {
        if n > 0 && self.results.outstanding.fetch_sub(n, Ordering::AcqRel) == n {
            self.queue.close();
        }
    }
}

/// A `run.network` event for network `net` with the given status.
fn network_event(sev: Severity, net: usize, status: &'static str) -> Event {
    Event::new(sev, "run.network")
        .corr(Corr::none().network(net as u64))
        .arg("status", status)
}

/// The `run.network` event of a quarantined network.
fn quarantine_event(net: usize, stage: &'static str, message: &str) -> Event {
    network_event(Severity::Warn, net, "quarantined")
        .arg("stage", stage)
        .arg("message", message.to_string())
}

/// One self-healing worker: drains the chunk queue, catching any panic
/// while it holds a chunk. A panicked chunk is retried in place, each
/// retry spending one of the run's restarts, until it exhausts its
/// attempt budget (its network is then quarantined) or finds the
/// restart budget spent (the run then fails and the queue closes).
/// Injected chaos worker faults fire on a chunk's first attempt only, so
/// a retry always makes progress.
fn worker_loop(ctx: &RunCtx<'_, '_>, worker: usize) {
    let tel = WorkerTelemetry::new(ctx.recorder, worker);
    let etel = EngineTelemetry::new(ctx.recorder);
    let track = ctx.tracer.track(&format!("worker-{worker}"));
    let mut scratch = EpisodeScratch::new();
    let budget = ctx.supervisor;
    while let Some(item) = ctx.queue.pop() {
        ctx.events.heartbeat();
        let mut attempts = 0u32;
        loop {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                if attempts == 0 {
                    match ctx.chaos.worker_fault(item.net, item.chunk) {
                        Some(WorkerFault::Panic) => {
                            ctx.recorder.counter(chaos_metrics::WORKER_PANICS).incr();
                            panic!(
                                "chaos: injected worker panic (net {}, chunk {})",
                                item.net, item.chunk
                            );
                        }
                        Some(WorkerFault::Stall(pause)) => {
                            ctx.recorder.counter(chaos_metrics::WORKER_STALLS).incr();
                            std::thread::sleep(pause);
                        }
                        None => {}
                    }
                }
                process_chunk(ctx, item, worker, &tel, &etel, &track, &mut scratch);
            }));
            let Err(payload) = ran else { break };
            let message = panic_message(payload.as_ref());
            ctx.recorder
                .counter(runner_metrics::SUPERVISOR_PANICS)
                .incr();
            attempts += 1;
            if attempts >= budget.max_chunk_attempts {
                abandon_network(
                    ctx,
                    item.net,
                    format!(
                        "chunk {} panicked {attempts} time(s); last panic: {message}",
                        item.chunk
                    ),
                );
                break;
            }
            let spent =
                ctx.results
                    .restarts
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n < budget.max_restarts).then_some(n + 1)
                    });
            let Ok(before) = spent else {
                eprintln!(
                    "runner: worker {worker} panicked ({message}) with the \
                     restart budget exhausted; aborting the run"
                );
                ctx.results
                    .panicked
                    .lock()
                    .expect("results mutex poisoned")
                    .get_or_insert((worker, message));
                ctx.queue.close();
                return;
            };
            let restart = before + 1;
            ctx.recorder
                .counter(runner_metrics::SUPERVISOR_RESTARTS)
                .incr();
            eprintln!(
                "runner: worker {worker} panicked ({message}); restart {restart}/{}",
                budget.max_restarts
            );
            let pause = budget.backoff_unit * RESTART_BACKOFF.backoff(restart) as u32;
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }
}

/// Retires a never-started network under an expired deadline: ends its
/// build, accounts every chunk, emits its `shed` network event, and
/// records the shed on the report. The caller has already moved the
/// lifecycle to `Retired`.
fn shed_network(ctx: &RunCtx<'_, '_>, net: usize) {
    ctx.queue.built(std::iter::empty());
    ctx.account(ctx.slots[net].seal().map_or(0, |(newly, _)| newly));
    ctx.results
        .shed
        .lock()
        .expect("results mutex poisoned")
        .push(net);
    ctx.recorder.counter(runner_metrics::SUPERVISOR_SHED).incr();
    ctx.events
        .emit(|| network_event(Severity::Warn, net, "shed"));
}

/// Quarantine after a chunk exhausted its attempt budget: the whole
/// network is dropped from the aggregate exactly as an episode panic
/// would drop it. Accounts every outstanding chunk and reports the
/// quarantine once — unless the network already finalized, in which
/// case nothing changes.
fn abandon_network(ctx: &RunCtx<'_, '_>, net: usize, message: String) {
    let slot = &ctx.slots[net];
    let was = std::mem::replace(
        &mut *slot
            .lifecycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner),
        SlotLifecycle::Retired,
    );
    if matches!(was, SlotLifecycle::Uninit) {
        // Chunk 0 gave up before its network was built.
        ctx.queue.built(std::iter::empty());
    }
    let Some((newly, started)) = slot.seal() else {
        return;
    };
    ctx.account(newly);
    ctx.recorder.counter(runner_metrics::QUARANTINED).incr();
    if let Some(started) = started {
        // The network had been claimed: balance the in-flight gauge its
        // initializer bumped and record its wall clock.
        ctx.recorder.gauge(runner_metrics::NETWORKS_INFLIGHT).sub(1);
        ctx.recorder
            .histogram(runner_metrics::NETWORK_NS)
            .record(started.elapsed().as_nanos() as u64);
    }
    ctx.events
        .emit(|| quarantine_event(net, "supervisor", &message));
    ctx.results
        .failures
        .lock()
        .expect("results mutex poisoned")
        .push(NetworkFailure {
            network: net,
            stage: "supervisor",
            message,
        });
}

/// Immutable per-network state shared by that network's episode chunks.
struct NetworkState {
    instance: AccuInstance,
    /// Episode seeds pre-drawn from the network stream in episode
    /// order, so chunked scheduling reproduces the exact per-episode
    /// RNG streams of sequential execution.
    run_seeds: Vec<u64>,
    policy_seed: u64,
    was_repaired: bool,
}

/// Where a network is in its build → run-chunks → fold lifecycle.
enum SlotLifecycle {
    /// Chunk 0 not yet claimed (or its build panicked and awaits a
    /// retry); no sibling chunk is queued.
    Uninit,
    /// Shared state ready for chunk execution.
    Ready {
        state: Arc<NetworkState>,
        init_worker: usize,
    },
    /// Every chunk accounted (folded, quarantined, shed, or abandoned)
    /// and the instance memory released. Sibling chunks of an abandoned
    /// network no-op here.
    Retired,
}

/// Chunk bookkeeping for one network, folded by whichever worker
/// completes the last chunk.
struct SlotProgress {
    started: Option<Instant>,
    /// Chunks accounted so far (completed, failed, shed, or abandoned).
    filled: usize,
    /// Per-chunk accounting bits backing the at-most-once fold: a retry
    /// of a chunk that panicked after filing its outcomes finds its bit
    /// already set and files nothing.
    chunk_filled: Vec<bool>,
    /// Set once the network's fate is sealed (folded, quarantined,
    /// shed, or abandoned); later accounting passes become no-ops.
    finalized: bool,
    /// Episode outcomes in episode order; folded into the network's
    /// accumulator sequentially at finalize so chunked and sequential
    /// scheduling sum floats in the identical order.
    outcomes: Vec<Option<AttackOutcome>>,
    failure: Option<String>,
}

/// One entry of the per-network slot table.
struct NetworkSlot {
    lifecycle: Mutex<SlotLifecycle>,
    progress: Mutex<SlotProgress>,
}

impl NetworkSlot {
    fn new(chunks: usize) -> Self {
        NetworkSlot {
            lifecycle: Mutex::new(SlotLifecycle::Uninit),
            progress: Mutex::new(SlotProgress {
                started: None,
                filled: 0,
                chunk_filled: vec![false; chunks],
                finalized: false,
                outcomes: Vec::new(),
                failure: None,
            }),
        }
    }

    /// Marks every chunk not yet filed as accounted and seals the slot,
    /// unless it is already sealed. Returns how many chunks this newly
    /// accounted (the caller passes them to [`RunCtx::account`]) and
    /// when the network's build started, if it was claimed.
    fn seal(&self) -> Option<(usize, Option<Instant>)> {
        let mut progress = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        if progress.finalized {
            return None;
        }
        progress.finalized = true;
        let newly = progress
            .chunk_filled
            .iter()
            .filter(|filled| !**filled)
            .count();
        progress.chunk_filled.fill(true);
        progress.filled += newly;
        Some((newly, progress.started.take()))
    }
}

/// Cache-aware default chunk granularity for one network's episodes.
///
/// Below the LLC budget a network splits into one chunk per worker and
/// the work queue builds one network at a time, so idle workers wait
/// for its siblings and share one instance held in cache. That is
/// ruinous once the instance no longer fits (each worker then pulls the
/// whole footprint from DRAM per episode), so above the budget the
/// default collapses to whole-network affinity — one chunk, one worker,
/// one resident instance — and workers build and run networks in
/// parallel. Results never depend on it: episode seeds are pre-drawn
/// and outcomes fold in episode order, so CSVs are byte-identical.
fn footprint_chunks(base_threads: usize, nodes: usize) -> usize {
    /// Rough per-node instance footprint: CSR offsets + two adjacency
    /// mirrors + per-node parameter rows (≈ 96 bytes at the scale
    /// tier's average degree 8).
    const APPROX_BYTES_PER_NODE: usize = 96;
    /// Conservative shared-LLC budget; instances beyond it get
    /// whole-network worker affinity.
    const LLC_BUDGET: usize = 24 << 20;
    if nodes.saturating_mul(APPROX_BYTES_PER_NODE) > LLC_BUDGET {
        1
    } else {
        base_threads
    }
}

/// Contiguous balanced split of `runs` episodes into `chunks` chunks:
/// chunk `c` covers episodes `[lo, hi)`.
fn chunk_range(runs: usize, chunks: usize, c: usize) -> (usize, usize) {
    let per = runs / chunks;
    let rem = runs % chunks;
    let lo = c * per + c.min(rem);
    let hi = lo + per + usize::from(c < rem);
    (lo, hi)
}

/// Generates, parameterizes, and (per `figure.validation`) repairs or
/// rejects one sampled network, then pre-draws every episode seed from
/// the network stream. Emits `load` and `validate` stage spans onto
/// `track` when tracing is live.
fn init_network(
    figure: &FigureRun,
    net_index: usize,
    recorder: &Recorder,
    track: &TraceTrack,
) -> Result<NetworkState, NetworkFailure> {
    let fail = |stage: &'static str, message: String| NetworkFailure {
        network: net_index,
        stage,
        message,
    };
    // Derive a per-network stream so results do not depend on thread
    // scheduling.
    let mut net_rng = StdRng::seed_from_u64(
        figure
            .seed
            .wrapping_add((net_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let load_span = track.span_with("load", &[("net", TraceValue::U64(net_index as u64))]);
    let graph = figure
        .dataset
        .generate(&mut net_rng)
        .map_err(|e| fail("dataset", e.to_string()))?;
    let instance = apply_protocol(graph, &figure.protocol, &mut net_rng)
        .map_err(|e| fail("protocol", e.to_string()))?;
    drop(load_span);
    let validate_span = track.span_with("validate", &[("net", TraceValue::U64(net_index as u64))]);
    let (instance, was_repaired) = match figure.validation.repair_mode() {
        None => (instance, false),
        Some(mode) => match repair_instance(instance, mode) {
            Ok((instance, report)) => {
                if !report.is_clean() {
                    recorder
                        .counter(validate_metrics::VIOLATIONS)
                        .add(report.violations.len() as u64);
                    recorder.counter(validate_metrics::REPAIRED_NETWORKS).incr();
                    recorder
                        .counter(validate_metrics::CLAMPED_PROBABILITIES)
                        .add(report.clamped_probabilities as u64);
                    recorder
                        .counter(validate_metrics::BENEFIT_FIXES)
                        .add(report.benefit_fixes as u64);
                    recorder
                        .counter(validate_metrics::DEMOTED_USERS)
                        .add(report.demoted_users as u64);
                    if report.lambda_guarantee_void() {
                        recorder
                            .counter(validate_metrics::LAMBDA_GUARANTEE_VOID)
                            .incr();
                    }
                }
                (instance, !report.is_clean())
            }
            Err(violations) => {
                recorder
                    .counter(validate_metrics::VIOLATIONS)
                    .add(violations.len() as u64);
                recorder.counter(validate_metrics::REJECTED_NETWORKS).incr();
                return Err(fail("validate", violations_message(&violations)));
            }
        },
    };
    drop(validate_span);
    // Stateful policies (Random, Snowball) are seeded per network, so a
    // network's outcomes never depend on which worker picked it up —
    // the property checkpoint/resume relies on.
    let policy_seed = figure
        .seed
        .wrapping_add((net_index as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    // Nothing else reads net_rng after validation, so drawing every
    // episode seed up front is stream-identical to drawing them lazily
    // inside a sequential episode loop.
    let run_seeds: Vec<u64> = (0..figure.runs_per_network)
        .map(|_| net_rng.gen())
        .collect();
    Ok(NetworkState {
        instance,
        run_seeds,
        policy_seed,
        was_repaired,
    })
}

/// Claims one `(network, chunk)` work item: builds the network's shared
/// state (chunk 0, which then queues its siblings) or reuses it, runs
/// the chunk's episodes one at a time in the worker's
/// [`EpisodeScratch`], and — when this was the network's last
/// outstanding chunk — folds the outcomes in episode order,
/// checkpoints, and retires the slot. Dataset/protocol/validation
/// failures quarantine via chunk 0; an episode-loop panic quarantines
/// the network at finalize.
///
/// Tracing: the chunk and episode loop run under `chunk`/`episodes`
/// spans on the worker's `track`; each episode toggles the track's
/// sampling gate by its run-global index (`net × runs_per_network +
/// ep`), so sampled episodes carry `episode_begin`/`episode_end`
/// markers plus the simulator's and policy's per-step events.
fn process_chunk(
    ctx: &RunCtx<'_, '_>,
    item: WorkItem,
    worker: usize,
    tel: &WorkerTelemetry,
    etel: &EngineTelemetry,
    track: &TraceTrack,
    scratch: &mut EpisodeScratch,
) {
    let WorkItem { net, chunk } = item;
    let figure = ctx.figure;
    let slot = &ctx.slots[net];
    let state: Arc<NetworkState> = {
        let mut lc = slot.lifecycle.lock().expect("slot mutex poisoned");
        match &*lc {
            SlotLifecycle::Ready { state, init_worker } => {
                if *init_worker != worker {
                    etel.steals.incr();
                }
                Arc::clone(state)
            }
            // Shed, quarantined or abandoned: nothing left to do.
            SlotLifecycle::Retired => return,
            // Only chunk 0 is ever claimed before its network is built.
            SlotLifecycle::Uninit => {
                // Soft deadline: shed a network nobody has started yet.
                // Chunk 0s pop in ascending network order, so the
                // survivors form a prefix of the sample list.
                if ctx
                    .deadline
                    .is_some_and(|at| net >= DEADLINE_MIN_NETWORKS && Instant::now() >= at)
                {
                    *lc = SlotLifecycle::Retired;
                    drop(lc);
                    shed_network(ctx, net);
                    return;
                }
                drop(lc);
                tel.networks_inflight.add(1);
                let started = Instant::now();
                slot.progress
                    .lock()
                    .expect("progress mutex poisoned")
                    .started = Some(started);
                match init_network(figure, net, ctx.recorder, track) {
                    Ok(state) => {
                        let state = Arc::new(state);
                        *slot.lifecycle.lock().expect("slot mutex poisoned") =
                            SlotLifecycle::Ready {
                                state: Arc::clone(&state),
                                init_worker: worker,
                            };
                        ctx.queue
                            .built((1..ctx.chunks).map(|chunk| WorkItem { net, chunk }));
                        state
                    }
                    Err(failure) => {
                        // No sibling was queued, so the quarantine is
                        // reported exactly once, here.
                        *slot.lifecycle.lock().expect("slot mutex poisoned") =
                            SlotLifecycle::Retired;
                        ctx.queue.built(std::iter::empty());
                        ctx.account(slot.seal().map_or(0, |(newly, _)| newly));
                        ctx.recorder.counter(runner_metrics::QUARANTINED).incr();
                        tel.networks_inflight.sub(1);
                        tel.network_ns.record(started.elapsed().as_nanos() as u64);
                        ctx.events
                            .emit(|| quarantine_event(net, failure.stage, &failure.message));
                        ctx.results
                            .failures
                            .lock()
                            .expect("results mutex poisoned")
                            .push(failure);
                        return;
                    }
                }
            }
        }
    };
    let (lo, hi) = chunk_range(figure.runs_per_network, ctx.chunks, chunk);
    let chunk_span = etel.chunk_ns.span();
    let chunk_trace = track.span_with(
        "chunk",
        &[
            ("net", TraceValue::U64(net as u64)),
            ("chunk", TraceValue::U64(chunk as u64)),
        ],
    );
    let episodes = catch_unwind(AssertUnwindSafe(|| {
        let mut policy_impl =
            ctx.policy
                .instantiate_instrumented(state.policy_seed, ctx.recorder, track);
        let mut outcomes: Vec<AttackOutcome> = Vec::with_capacity(hi - lo);
        let episodes_trace = track.span("episodes");
        for ep in lo..hi {
            let run_seed = state.run_seeds[ep];
            if scratch.prepare(&state.instance) {
                etel.scratch_reuses.incr();
            } else {
                etel.scratch_allocs.incr();
            }
            scratch
                .realization
                .sample_into(&state.instance, &mut StdRng::seed_from_u64(run_seed));
            // Episode indices are global across the run, so which
            // episodes a sampling period selects is independent of
            // chunking and thread count.
            let global_ep = (net * figure.runs_per_network + ep) as u64;
            if track.is_enabled() {
                track.set_active(ctx.tracer.sample_hit(global_ep));
            }
            if track.is_active() {
                track.instant(
                    "episode_begin",
                    &[
                        ("net", TraceValue::U64(net as u64)),
                        ("ep", TraceValue::U64(ep as u64)),
                        ("global_ep", TraceValue::U64(global_ep)),
                        ("policy", TraceValue::from(ctx.policy.name())),
                        (
                            "dataset",
                            TraceValue::from(figure.dataset.name().to_string()),
                        ),
                        ("budget", TraceValue::U64(figure.budget as u64)),
                        // As a string: u64 seeds above 2^53 do not
                        // survive a round-trip through JSON doubles.
                        ("seed", TraceValue::from(run_seed.to_string())),
                    ],
                );
            }
            // The plan is seeded by the episode, not the policy, so
            // paired comparisons face identical fault sequences; it is
            // trivial (and free) when figure.faults is none.
            let plan = FaultPlan::sample(&figure.faults, run_seed, figure.budget);
            let opts = AttackOptions {
                faults: &plan,
                retry: figure.retry,
                recorder: ctx.recorder,
                track,
                believed: None,
            };
            let outcome = run_attack_with(
                &state.instance,
                policy_impl.as_mut(),
                figure.budget,
                &opts,
                scratch,
            )
            .expect("exact knowledge cannot mismatch");
            if track.is_active() {
                track.instant(
                    "episode_end",
                    &[
                        ("net", TraceValue::U64(net as u64)),
                        ("ep", TraceValue::U64(ep as u64)),
                        ("global_ep", TraceValue::U64(global_ep)),
                        ("total_benefit", TraceValue::F64(outcome.total_benefit)),
                        ("requests", TraceValue::U64(outcome.trace.len() as u64)),
                        ("friends", TraceValue::U64(outcome.friends.len() as u64)),
                        (
                            "cautious_friends",
                            TraceValue::U64(outcome.cautious_friends as u64),
                        ),
                        (
                            "faults",
                            TraceValue::U64(outcome.faults.faults_seen() as u64),
                        ),
                    ],
                );
            }
            outcomes.push(outcome.clone());
            tel.episodes.incr();
            tel.worker_episodes.incr();
            ctx.events.episode_done(outcome.faults.faults_seen() as u64);
        }
        drop(episodes_trace);
        outcomes
    }));
    chunk_span.finish();
    drop(chunk_trace);
    // Re-open the gate so the stage spans below (fold, checkpoint, the
    // next chunk's load) emit even when the last episode was unsampled
    // — or when the loop panicked with the gate closed.
    if track.is_enabled() {
        track.set_active(true);
    }
    let mut progress = slot.progress.lock().expect("progress mutex poisoned");
    if progress.chunk_filled[chunk] {
        // A retry of a chunk that panicked after filing its outcomes, or
        // a chunk of a network abandoned meanwhile: fold at most once.
        return;
    }
    progress.chunk_filled[chunk] = true;
    progress.filled += 1;
    ctx.account(1);
    match episodes {
        Ok(outcomes) => {
            if progress.outcomes.is_empty() {
                progress.outcomes = vec![None; figure.runs_per_network];
            }
            for (offset, outcome) in outcomes.into_iter().enumerate() {
                progress.outcomes[lo + offset] = Some(outcome);
            }
        }
        Err(payload) => {
            if progress.failure.is_none() {
                progress.failure = Some(panic_message(payload.as_ref()));
            }
        }
    }
    if progress.filled < ctx.chunks {
        return;
    }
    progress.finalized = true;
    let outcomes = std::mem::take(&mut progress.outcomes);
    let failure = progress.failure.take();
    let started = progress.started.take();
    drop(progress);
    // Last chunk: release the instance memory and account the network.
    *slot.lifecycle.lock().expect("slot mutex poisoned") = SlotLifecycle::Retired;
    tel.networks_inflight.sub(1);
    if let Some(started) = started {
        tel.network_ns.record(started.elapsed().as_nanos() as u64);
    }
    match failure {
        Some(message) => {
            ctx.recorder.counter(runner_metrics::QUARANTINED).incr();
            ctx.events
                .emit(|| quarantine_event(net, "episodes", &message));
            ctx.results
                .failures
                .lock()
                .expect("results mutex poisoned")
                .push(NetworkFailure {
                    network: net,
                    stage: "episodes",
                    message,
                });
        }
        None => {
            let fold_span = track.span_with("fold", &[("net", TraceValue::U64(net as u64))]);
            let mut acc = TraceAccumulator::new(figure.budget);
            for outcome in &outcomes {
                let outcome = outcome
                    .as_ref()
                    .expect("every episode of a clean network is accounted");
                acc.add(outcome);
            }
            drop(fold_span);
            tel.networks.incr();
            let ckpt_span = track.span_with("checkpoint", &[("net", TraceValue::U64(net as u64))]);
            let mut guard = ctx.ckpt_shared.lock().expect("checkpoint mutex poisoned");
            if let Some(ckpt) = guard.as_mut() {
                if let Err(e) = ckpt.record(ctx.cell, net, &acc) {
                    *ctx.ckpt_error.lock().expect("error mutex poisoned") = Some(e);
                    *guard = None;
                }
            }
            drop(guard);
            drop(ckpt_span);
            ctx.events.emit(|| {
                network_event(Severity::Info, net, "ok")
                    .arg("episodes", acc.runs() as u64)
                    .arg("mean_benefit", acc.mean_total_benefit())
                    .arg("faults_mean", acc.mean_faults_seen())
                    .arg("repaired", state.was_repaired)
            });
            ctx.results
                .repaired
                .fetch_add(usize::from(state.was_repaired), Ordering::Relaxed);
            ctx.results
                .done
                .lock()
                .expect("results mutex poisoned")
                .push((net, acc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A default-options run's aggregate.
    fn run(figure: &FigureRun, policy: PolicyKind) -> TraceAccumulator {
        run_policy_with(figure, policy, RunOptions::default())
            .expect("clean run")
            .accumulator
    }

    /// A run recording into `recorder` and, when given, checkpointing.
    fn checked(
        figure: &FigureRun,
        policy: PolicyKind,
        recorder: &Recorder,
        checkpoint: Option<&mut Checkpoint>,
    ) -> Result<RunReport, RunnerError> {
        let opts = RunOptions {
            recorder: recorder.clone(),
            checkpoint,
            ..RunOptions::default()
        };
        run_policy_with(figure, policy, opts)
    }

    /// A run on at most `workers` threads; a chunkable policy splits
    /// each (cache-sized) network into `workers` episode chunks,
    /// clamped to its episode count.
    fn tuned(
        figure: &FigureRun,
        policy: PolicyKind,
        recorder: &Recorder,
        workers: usize,
    ) -> RunReport {
        let opts = RunOptions {
            recorder: recorder.clone(),
            max_workers: Some(workers),
            ..RunOptions::default()
        };
        run_policy_with(figure, policy, opts).expect("tuned run")
    }

    fn tiny_figure() -> FigureRun {
        FigureRun {
            dataset: DatasetSpec::facebook().scaled(0.02), // 80 nodes
            protocol: ProtocolConfig {
                cautious_count: 2,
                degree_band: (5, 80),
                ..ProtocolConfig::default()
            },
            budget: 10,
            network_samples: 3,
            runs_per_network: 2,
            seed: 99,
            faults: FaultConfig::none(),
            retry: RetryPolicy::standard(),
            validation: ValidationMode::default(),
        }
    }

    #[test]
    fn runner_aggregates_all_episodes() {
        let fig = tiny_figure();
        let acc = run(&fig, PolicyKind::MaxDegree);
        assert_eq!(acc.runs(), fig.episodes());
        assert_eq!(acc.budget(), 10);
        assert!(acc.mean_total_benefit() > 0.0);
    }

    #[test]
    fn runner_is_deterministic_across_invocations() {
        let fig = tiny_figure();
        let a = run(&fig, PolicyKind::abm_balanced());
        let b = run(&fig, PolicyKind::abm_balanced());
        assert_eq!(a.mean_cumulative_benefit(), b.mean_cumulative_benefit());
        assert_eq!(a.mean_cautious_friends(), b.mean_cautious_friends());
    }

    #[test]
    fn stateful_policies_are_deterministic_too() {
        // Per-network policy seeding makes even RNG-driven policies
        // independent of worker scheduling.
        let fig = tiny_figure();
        for policy in [PolicyKind::Random, PolicyKind::Snowball] {
            let a = run(&fig, policy);
            let b = run(&fig, policy);
            assert_eq!(a, b, "{} must not depend on scheduling", policy.name());
        }
    }

    #[test]
    fn abm_beats_random_on_average() {
        let fig = tiny_figure();
        let abm = run(&fig, PolicyKind::abm_balanced());
        let random = run(&fig, PolicyKind::Random);
        assert!(
            abm.mean_total_benefit() > random.mean_total_benefit(),
            "ABM {} vs Random {}",
            abm.mean_total_benefit(),
            random.mean_total_benefit()
        );
    }

    #[test]
    fn lineup_has_paper_order() {
        let names: Vec<&str> = PolicyKind::paper_lineup()
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names, vec!["ABM", "PageRank", "MaxDegree", "Random"]);
    }

    #[test]
    fn extended_lineup_names_are_distinct() {
        let lineup = PolicyKind::extended_lineup();
        assert_eq!(lineup.len(), 9);
        let names: std::collections::HashSet<&str> = lineup.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn centrality_policies_run_through_the_runner() {
        let fig = tiny_figure();
        let acc = run(&fig, PolicyKind::Centrality(CentralityKind::Eigenvector));
        assert_eq!(acc.runs(), fig.episodes());
        assert!(acc.mean_total_benefit() > 0.0);
    }

    #[test]
    fn recorded_runner_matches_plain_and_counts_episodes() {
        use accu_core::sim_metrics;

        let fig = tiny_figure();
        let plain = run(&fig, PolicyKind::abm_balanced());
        let recorder = Recorder::enabled();
        let acc = checked(&fig, PolicyKind::abm_balanced(), &recorder, None)
            .unwrap()
            .accumulator;
        // Telemetry must not perturb the simulation.
        assert_eq!(
            plain.mean_cumulative_benefit(),
            acc.mean_cumulative_benefit()
        );

        let snap = recorder.snapshot("runner-test").unwrap();
        let episodes = acc.runs() as u64;
        assert_eq!(snap.counter(runner_metrics::EPISODES), Some(episodes));
        assert_eq!(snap.counter(sim_metrics::EPISODES), Some(episodes));
        assert_eq!(
            snap.counter(runner_metrics::NETWORKS),
            Some(fig.network_samples as u64)
        );
        // Every episode on this instance exhausts the full budget, so
        // the simulator's request counter is exactly runs × k.
        assert_eq!(
            snap.counter(sim_metrics::REQUESTS),
            Some(episodes * fig.budget as u64)
        );
        // Per-worker throughput counters partition the episode total.
        let worker_sum: u64 = snap
            .counters
            .iter()
            .filter(|c| c.name.starts_with("runner.worker."))
            .map(|c| c.value)
            .sum();
        assert_eq!(worker_sum, episodes);
        // One wall-clock sample per sampled network.
        let net_ns = snap.histogram(runner_metrics::NETWORK_NS).unwrap();
        assert_eq!(net_ns.count, fig.network_samples as u64);
        assert!(net_ns.sum > 0);
        // A clean fault-free run registers no degraded-mode counters.
        assert_eq!(snap.counter(runner_metrics::QUARANTINED), None);
        assert_eq!(snap.counter(runner_metrics::RESUMED), None);
        assert_eq!(snap.counter(accu_core::fault_metrics::INJECTED), None);
    }

    #[test]
    fn zero_fault_config_is_bitwise_identical_to_plain() {
        // FaultConfig::none() must add no perturbation whatsoever.
        let plain = run(&tiny_figure(), PolicyKind::abm_balanced());
        let faulted_fig = FigureRun {
            faults: FaultConfig::none(),
            retry: RetryPolicy::aggressive(),
            ..tiny_figure()
        };
        let faulted = run(&faulted_fig, PolicyKind::abm_balanced());
        assert_eq!(plain, faulted);
    }

    #[test]
    fn faulted_runs_degrade_but_complete() {
        let fig = FigureRun {
            faults: FaultConfig::scaled(0.8),
            ..tiny_figure()
        };
        let clean = run(&tiny_figure(), PolicyKind::abm_balanced());
        let degraded = run(&fig, PolicyKind::abm_balanced());
        assert_eq!(degraded.runs(), fig.episodes());
        assert!(degraded.mean_faults_seen() > 0.0);
        assert!(
            degraded.mean_total_benefit() < clean.mean_total_benefit(),
            "faults must cost benefit: {} vs {}",
            degraded.mean_total_benefit(),
            clean.mean_total_benefit()
        );
    }

    #[test]
    fn invalid_fault_config_is_a_typed_error() {
        let fig = FigureRun {
            faults: FaultConfig {
                transient_failure: 2.0,
                ..FaultConfig::none()
            },
            ..tiny_figure()
        };
        let err = checked(&fig, PolicyKind::MaxDegree, &Recorder::disabled(), None).unwrap_err();
        assert!(matches!(err, RunnerError::InvalidFaults(_)));
        assert!(err.to_string().contains("invalid fault config"));
    }

    #[test]
    fn protocol_errors_are_quarantined_not_fatal() {
        // A protocol whose benefits violate B_f >= B_fof fails instance
        // validation on every network — the run must survive and report
        // every network as quarantined.
        let fig = FigureRun {
            protocol: ProtocolConfig {
                cautious_friend_benefit: 0.5, // < fof benefit
                ..tiny_figure().protocol
            },
            ..tiny_figure()
        };
        let recorder = Recorder::enabled();
        let report = checked(&fig, PolicyKind::MaxDegree, &recorder, None).unwrap();
        assert_eq!(report.quarantined.len(), fig.network_samples);
        assert_eq!(report.completed_networks, 0);
        assert_eq!(report.accumulator.runs(), 0);
        assert_eq!(report.quarantined[0].network, 0);
        assert_eq!(report.quarantined[0].stage, "protocol");
        assert!(report.quarantined[0].message.contains("B_f"));
        let snap = recorder.snapshot("quarantine").unwrap();
        assert_eq!(
            snap.counter(runner_metrics::QUARANTINED),
            Some(fig.network_samples as u64)
        );
    }

    #[test]
    fn validation_is_transparent_on_clean_instances() {
        // Protocol-generated instances satisfy the paper preconditions
        // by construction, so all three modes must agree bit-for-bit.
        let reference = run(&tiny_figure(), PolicyKind::abm_balanced());
        for validation in [ValidationMode::Off, ValidationMode::Strict] {
            let fig = FigureRun {
                validation,
                ..tiny_figure()
            };
            let acc = run(&fig, PolicyKind::abm_balanced());
            assert_eq!(acc, reference, "mode {validation} must not perturb results");
        }
    }

    #[test]
    fn strict_validation_passes_protocol_instances() {
        let fig = FigureRun {
            validation: ValidationMode::Strict,
            ..tiny_figure()
        };
        let report = checked(&fig, PolicyKind::MaxDegree, &Recorder::disabled(), None).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.repaired_networks, 0);
        assert_eq!(report.completed_networks, fig.network_samples);
    }

    /// A threshold fraction above 1 produces cautious users whose θ
    /// exceeds their degree — legal at the protocol level (the sweep
    /// axes only bound the paper's figures, not the API) but a
    /// ThresholdUnreachable violation at the model level.
    fn unreachable_figure(validation: ValidationMode) -> FigureRun {
        FigureRun {
            protocol: ProtocolConfig {
                threshold_fraction: 5.0,
                ..tiny_figure().protocol
            },
            validation,
            ..tiny_figure()
        }
    }

    #[test]
    fn strict_validation_rejects_precondition_violations() {
        let fig = unreachable_figure(ValidationMode::Strict);
        let recorder = Recorder::enabled();
        let report = checked(&fig, PolicyKind::MaxDegree, &recorder, None).unwrap();
        assert_eq!(report.quarantined.len(), fig.network_samples);
        assert_eq!(report.completed_networks, 0);
        assert_eq!(report.quarantined[0].stage, "validate");
        assert!(
            report.quarantined[0].message.contains("violation"),
            "message: {}",
            report.quarantined[0].message
        );
        let snap = recorder.snapshot("strict-reject").unwrap();
        assert_eq!(
            snap.counter(validate_metrics::REJECTED_NETWORKS),
            Some(fig.network_samples as u64)
        );
        assert!(snap.counter(validate_metrics::VIOLATIONS).unwrap() > 0);
    }

    #[test]
    fn lenient_validation_repairs_and_completes() {
        let fig = unreachable_figure(ValidationMode::Lenient);
        let recorder = Recorder::enabled();
        let report = checked(&fig, PolicyKind::MaxDegree, &recorder, None).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.completed_networks, fig.network_samples);
        assert_eq!(report.repaired_networks, fig.network_samples);
        assert_eq!(report.accumulator.runs(), fig.episodes());
        let snap = recorder.snapshot("lenient-repair").unwrap();
        assert_eq!(
            snap.counter(validate_metrics::REPAIRED_NETWORKS),
            Some(fig.network_samples as u64)
        );
        assert_eq!(
            snap.counter(validate_metrics::LAMBDA_GUARANTEE_VOID),
            Some(fig.network_samples as u64)
        );
        assert!(snap.counter(validate_metrics::DEMOTED_USERS).unwrap() > 0);
        // Off mode happily runs the same degraded instances untouched.
        let off = unreachable_figure(ValidationMode::Off);
        let report = checked(&off, PolicyKind::MaxDegree, &Recorder::disabled(), None).unwrap();
        assert_eq!(report.completed_networks, off.network_samples);
        assert_eq!(report.repaired_networks, 0);
    }

    #[test]
    fn violations_message_truncates_long_lists() {
        let violations: Vec<Violation> = (0..5)
            .map(|n| Violation::ZeroThreshold {
                node: osn_graph::NodeId::new(n),
            })
            .collect();
        let message = violations_message(&violations);
        assert!(message.starts_with("5 paper-precondition violation(s):"));
        assert!(message.contains("and 2 more"));
        let short = violations_message(&violations[..1]);
        assert!(!short.contains("more"));
    }

    #[test]
    fn panics_inside_episodes_are_quarantined() {
        // Drive the episode loop into a panic: ABM weights that produce
        // NaN potentials will not panic, so use the budget assertion
        // seam instead — a policy re-selecting is the simulator's panic
        // path. Simplest deterministic panic: a graph too small for the
        // protocol is fine, so instead verify the helper directly.
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom 7");
        let payload = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "static");
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let fig = tiny_figure();
        let reference = run(&fig, PolicyKind::abm_balanced());
        // Simulate an interrupted run: only network 0 made it into the
        // checkpoint. A 1-sample run produces exactly network 0's
        // accumulator (run_network depends only on the net index).
        let one = FigureRun {
            network_samples: 1,
            ..fig.clone()
        };
        let net0 = run(&one, PolicyKind::abm_balanced());
        let path = std::env::temp_dir().join(format!(
            "accu-runner-resume-test-{}.jsonl",
            std::process::id()
        ));
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record(&fig.cell_label(PolicyKind::abm_balanced()), 0, &net0)
                .unwrap();
        }
        let mut ckpt = Checkpoint::resume(&path).unwrap();
        let recorder = Recorder::enabled();
        let report = checked(&fig, PolicyKind::abm_balanced(), &recorder, Some(&mut ckpt)).unwrap();
        assert_eq!(report.resumed_networks, 1);
        assert_eq!(report.completed_networks, fig.network_samples);
        assert_eq!(
            ckpt.skipped_lines(),
            0,
            "a clean checkpoint reports no dropped lines"
        );
        assert_eq!(
            report.accumulator, reference,
            "resumed aggregate must match the uninterrupted run exactly"
        );
        let snap = recorder.snapshot("resume").unwrap();
        assert_eq!(snap.counter(runner_metrics::RESUMED), Some(1));
        // Only the two fresh networks were computed.
        assert_eq!(
            snap.counter(runner_metrics::NETWORKS),
            Some((fig.network_samples - 1) as u64)
        );
        // After the resumed run the checkpoint covers everything: a
        // second resume recomputes nothing.
        drop(ckpt);
        let mut ckpt = Checkpoint::resume(&path).unwrap();
        let report2 = checked(
            &fig,
            PolicyKind::abm_balanced(),
            &Recorder::disabled(),
            Some(&mut ckpt),
        )
        .unwrap();
        assert_eq!(report2.resumed_networks, fig.network_samples);
        assert_eq!(report2.accumulator, reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_checkpoint_tail_is_reported_in_the_run_report() {
        let fig = tiny_figure();
        let reference = run(&fig, PolicyKind::abm_balanced());
        let path = std::env::temp_dir().join(format!(
            "accu-runner-torn-report-test-{}.jsonl",
            std::process::id()
        ));
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            let one = FigureRun {
                network_samples: 1,
                ..fig.clone()
            };
            let net0 = run(&one, PolicyKind::abm_balanced());
            ckpt.record(&fig.cell_label(PolicyKind::abm_balanced()), 0, &net0)
                .unwrap();
            ckpt.record(&fig.cell_label(PolicyKind::abm_balanced()), 1, &net0)
                .unwrap();
        }
        // Crash signature: chop the final line in half.
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &contents[..contents.len() - 30]).unwrap();
        let mut ckpt = Checkpoint::resume(&path).unwrap();
        let report = checked(
            &fig,
            PolicyKind::abm_balanced(),
            &Recorder::disabled(),
            Some(&mut ckpt),
        )
        .unwrap();
        assert_eq!(
            ckpt.skipped_lines(),
            1,
            "the torn tail is dropped and counted, not fatal"
        );
        assert_eq!(report.resumed_networks, 1, "the torn network is recomputed");
        assert_eq!(report.accumulator, reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_cells_isolate_configurations() {
        let fig = tiny_figure();
        let a = fig.cell_label(PolicyKind::abm_balanced());
        // Different policy, weights, seed, budget, or faults → different
        // cells, so stale entries can never leak across configurations.
        assert_ne!(a, fig.cell_label(PolicyKind::MaxDegree));
        assert_ne!(a, fig.cell_label(PolicyKind::abm_with_indirect(0.3)));
        let other = FigureRun {
            seed: 100,
            ..fig.clone()
        };
        assert_ne!(a, other.cell_label(PolicyKind::abm_balanced()));
        let faulty = FigureRun {
            faults: FaultConfig::scaled(0.5),
            ..fig.clone()
        };
        assert_ne!(a, faulty.cell_label(PolicyKind::abm_balanced()));
        let protocol = FigureRun {
            protocol: ProtocolConfig {
                cautious_friend_benefit: 20.0,
                ..fig.protocol.clone()
            },
            ..fig.clone()
        };
        assert_ne!(a, protocol.cell_label(PolicyKind::abm_balanced()));
        // The default protocol adds nothing, so labels written before
        // the protocol was encoded still resume.
        let default = FigureRun {
            protocol: ProtocolConfig::default(),
            ..fig.clone()
        };
        assert!(!default
            .cell_label(PolicyKind::abm_balanced())
            .contains("ProtocolConfig"));
    }

    #[test]
    fn default_abm_cell_label_keeps_its_exact_text() {
        // Every checkpoint line is keyed by this label, so any change to
        // its text orphans the checkpoints already written. This is the
        // label `fig2 --samples 2 --runs 1 --budget 5 --scale 0.01` keys
        // its Facebook ABM cell by.
        let cli = crate::Cli::parse_from("--samples 2 --runs 1 --budget 5 --scale 0.01".split(' '))
            .unwrap();
        let figure = crate::ExperimentScale::from_cli(&cli)
            .figure_run(DatasetSpec::facebook(), ProtocolConfig::default());
        assert_eq!(
            figure.cell_label(PolicyKind::abm_balanced()),
            "Facebook@40|ABM[0.5,0.5]|n2r1k5s42|FaultConfig { transient_failure: 0.0, \
             response_drop: 0.0, rate_limit: None, suspension_hazard: 0.0, seed: 0 }|\
             RetryPolicy { max_retries: 3, backoff_base: 1, backoff_cap: 8, jitter_pct: 0 }|\
             v=lenient"
        );
    }

    #[test]
    fn checkpoint_never_resumes_a_cell_that_differs_only_in_protocol() {
        let figure = |bf: f64| FigureRun {
            dataset: DatasetSpec::twitter().scaled(0.01),
            protocol: ProtocolConfig {
                cautious_friend_benefit: bf,
                ..ProtocolConfig::default()
            },
            budget: 20,
            network_samples: 3,
            runs_per_network: 2,
            seed: 5,
            faults: FaultConfig::none(),
            retry: RetryPolicy::standard(),
            validation: ValidationMode::default(),
        };
        let path = std::env::temp_dir().join(format!(
            "accu-runner-protocol-cell-test-{}.jsonl",
            std::process::id()
        ));
        let policy = PolicyKind::abm_balanced();
        let mut ckpt = Checkpoint::create(&path).unwrap();
        checked(
            &figure(20.0),
            policy,
            &Recorder::disabled(),
            Some(&mut ckpt),
        )
        .unwrap();
        drop(ckpt);
        let mut ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.loaded_entries(), 3);
        let report = checked(
            &figure(60.0),
            policy,
            &Recorder::disabled(),
            Some(&mut ckpt),
        )
        .unwrap();
        assert_eq!(report.resumed_networks, 0);
        assert_eq!(report.accumulator, run(&figure(60.0), policy));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_ranges_partition_episodes() {
        for runs in [0usize, 1, 2, 5, 7, 30] {
            for chunks in 1..=7usize {
                let mut expect = 0usize;
                for c in 0..chunks {
                    let (lo, hi) = chunk_range(runs, chunks, c);
                    assert_eq!(lo, expect, "runs={runs} chunks={chunks} c={c}");
                    assert!(hi >= lo);
                    expect = hi;
                }
                assert_eq!(expect, runs, "runs={runs} chunks={chunks}");
            }
        }
    }

    #[test]
    fn work_queue_hands_out_a_chunk_zero_only_while_a_build_slot_is_free() {
        let item = |net, chunk| WorkItem { net, chunk };
        let queue = WorkQueue::new((0..3).map(|net| item(net, 0)).collect(), 2);
        assert_eq!(queue.pop(), Some(item(0, 0)));
        assert_eq!(queue.pop(), Some(item(1, 0)));
        std::thread::scope(|s| {
            // Two networks are building: network 2 waits for a slot, and
            // network 1's siblings go ahead of it once it is built.
            let waiter = s.spawn(|| queue.pop());
            std::thread::sleep(Duration::from_millis(20));
            assert!(!waiter.is_finished());
            queue.built((1..3).map(|chunk| item(1, chunk)));
            assert_eq!(waiter.join().unwrap(), Some(item(1, 1)));
        });
        assert_eq!(queue.pop(), Some(item(1, 2)));
        assert_eq!(queue.pop(), Some(item(2, 0)));
        queue.close();
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn chunked_scheduling_is_bit_identical_to_sequential() {
        let fig = FigureRun {
            runs_per_network: 4,
            ..tiny_figure()
        };
        for policy in [
            PolicyKind::abm_balanced(),
            PolicyKind::Greedy,
            PolicyKind::MaxDegree,
            PolicyKind::PageRank,
            PolicyKind::Centrality(CentralityKind::Closeness),
            // Non-chunkable: must run as one chunk at any worker count
            // (chunking would change their per-network policy stream).
            PolicyKind::Random,
            PolicyKind::Snowball,
        ] {
            let sequential = tuned(&fig, policy, &Recorder::disabled(), 1);
            let chunked = tuned(&fig, policy, &Recorder::disabled(), 3);
            assert_eq!(
                sequential.accumulator,
                chunked.accumulator,
                "{} must not depend on chunking",
                policy.name()
            );
            assert_eq!(chunked.completed_networks, fig.network_samples);
        }
    }

    #[test]
    fn chunked_scheduling_matches_default_entry_point() {
        let fig = FigureRun {
            runs_per_network: 5,
            ..tiny_figure()
        };
        let reference = run(&fig, PolicyKind::abm_balanced());
        let chunked = tuned(&fig, PolicyKind::abm_balanced(), &Recorder::disabled(), 4);
        assert_eq!(reference, chunked.accumulator);
    }

    #[test]
    fn engine_counters_account_every_episode_and_chunk() {
        let fig = FigureRun {
            runs_per_network: 4,
            ..tiny_figure()
        };
        let chunks = 2usize;
        let recorder = Recorder::enabled();
        let report = tuned(&fig, PolicyKind::abm_balanced(), &recorder, chunks);
        assert!(report.quarantined.is_empty());
        let snap = recorder.snapshot("engine").unwrap();
        let episodes = fig.episodes() as u64;
        let reuses = snap.counter(engine_metrics::SCRATCH_REUSES).unwrap_or(0);
        let allocs = snap.counter(engine_metrics::SCRATCH_ALLOCS).unwrap();
        // Every episode prepares the scratch exactly once; a worker
        // only allocates when its high-water instance size grows, so at
        // worst once per (worker, network) pair.
        assert_eq!(reuses + allocs, episodes);
        let worst = (2 * fig.network_samples) as u64;
        assert!(allocs >= 1 && allocs <= worst, "allocs = {allocs}");
        // Steals are scheduling-dependent but the counter must exist
        // and stay within the number of non-initializing chunks.
        let steals = snap.counter(engine_metrics::STEALS).unwrap_or(0);
        let total_chunks = (fig.network_samples * chunks) as u64;
        assert!(steals <= total_chunks - fig.network_samples as u64);
        // One timing sample per claimed chunk on a clean run.
        let chunk_ns = snap.histogram(engine_metrics::CHUNK_NS).unwrap();
        assert_eq!(chunk_ns.count, total_chunks);
    }

    #[test]
    fn workers_counter_reports_post_clamp_spawned_count() {
        // 3 networks of one episode each: one chunk per network.
        let fig = FigureRun {
            runs_per_network: 1,
            ..tiny_figure()
        };
        let recorder = Recorder::enabled();
        // 8 requested workers, 3 single-chunk work items → 3 spawned.
        tuned(&fig, PolicyKind::MaxDegree, &recorder, 8);
        let snap = recorder.snapshot("workers").unwrap();
        assert_eq!(snap.counter(runner_metrics::WORKERS), Some(3));
    }

    /// Healing tuned for tests: no restart pauses, so healing storms of
    /// injected panics stays fast.
    fn eager_supervisor() -> SupervisorConfig {
        SupervisorConfig {
            backoff_unit: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn chaos_worker_panics_are_healed_by_supervisor() {
        // panic=1.0 panics on the first attempt of every chunk; the
        // in-place retry is fault-free, so the healed run must match the
        // clean run bit-for-bit.
        let fig = tiny_figure();
        let reference = run(&fig, PolicyKind::abm_balanced());
        let chaos = ChaosPlan::sample(&accu_core::ChaosConfig {
            worker_panic: 1.0,
            ..accu_core::ChaosConfig::none()
        });
        let recorder = Recorder::enabled();
        let report = run_policy_with(
            &fig,
            PolicyKind::abm_balanced(),
            RunOptions {
                recorder: recorder.clone(),
                chaos,
                max_workers: Some(2),
                supervisor: eager_supervisor(),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.accumulator, reference,
            "healed run must match the clean run exactly"
        );
        assert!(report.quarantined.is_empty());
        assert!(report.supervisor_restarts > 0);
        assert!(!report.degraded(), "healing is not degradation");
        let snap = recorder.snapshot("chaos-heal").unwrap();
        assert!(snap.counter(chaos_metrics::WORKER_PANICS).unwrap() > 0);
        assert_eq!(
            snap.counter(runner_metrics::SUPERVISOR_RESTARTS),
            Some(report.supervisor_restarts as u64)
        );
        assert_eq!(
            snap.counter(runner_metrics::SUPERVISOR_PANICS),
            snap.counter(chaos_metrics::WORKER_PANICS)
        );
    }

    #[test]
    fn deadline_zero_sheds_everything_beyond_the_minimum() {
        // An already-expired deadline sheds every network past the
        // survivor floor. Networks are claimed in index order, so the
        // survivors are the prefix [0, DEADLINE_MIN_NETWORKS) and the
        // partial aggregate equals a fresh run over that many samples —
        // at any worker count.
        let fig = FigureRun {
            network_samples: 4,
            ..tiny_figure()
        };
        let prefix = FigureRun {
            network_samples: DEADLINE_MIN_NETWORKS,
            ..fig.clone()
        };
        let expected = run(&prefix, PolicyKind::abm_balanced());
        for workers in [1usize, 2, 4] {
            let report = run_policy_with(
                &fig,
                PolicyKind::abm_balanced(),
                RunOptions {
                    max_workers: Some(workers),
                    deadline: Some(Instant::now()),
                    ..RunOptions::default()
                },
            )
            .unwrap();
            assert!(report.degraded());
            assert_eq!(
                report.shed_networks,
                fig.network_samples - DEADLINE_MIN_NETWORKS,
                "workers={workers}"
            );
            assert_eq!(report.completed_networks, DEADLINE_MIN_NETWORKS);
            assert_eq!(
                report.accumulator, expected,
                "degraded aggregate must equal the {DEADLINE_MIN_NETWORKS}-sample run (workers={workers})"
            );
            assert!(report.quarantined.is_empty());
            assert!(report.ci_half_width() > 0.0);
        }
    }

    #[test]
    fn exhausted_chunk_attempts_quarantine_with_supervisor_stage() {
        // max_chunk_attempts=1 means the first injected panic abandons
        // the whole network; with panic=1.0 every network dies, exactly
        // once each, and no retry is spent.
        let fig = tiny_figure();
        let chaos = ChaosPlan::sample(&accu_core::ChaosConfig {
            worker_panic: 1.0,
            ..accu_core::ChaosConfig::none()
        });
        let report = run_policy_with(
            &fig,
            PolicyKind::abm_balanced(),
            RunOptions {
                chaos,
                max_workers: Some(1),
                supervisor: SupervisorConfig {
                    max_chunk_attempts: 1,
                    ..eager_supervisor()
                },
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.quarantined.len(), fig.network_samples);
        assert!(report.quarantined.iter().all(|f| f.stage == "supervisor"));
        assert_eq!(report.completed_networks, 0);
        assert_eq!(report.accumulator.runs(), 0);
        assert_eq!(report.shed_networks, 0);
        assert_eq!(report.supervisor_restarts, 0);
    }

    #[test]
    fn panic_message_handles_non_string_payloads() {
        let payload = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }

    #[test]
    fn abm_with_indirect_sets_complementary_weights() {
        if let PolicyKind::Abm { wd, wi } = PolicyKind::abm_with_indirect(0.2) {
            assert!((wd - 0.8).abs() < 1e-12);
            assert!((wi - 0.2).abs() < 1e-12);
        } else {
            panic!("expected ABM variant");
        }
    }
}
