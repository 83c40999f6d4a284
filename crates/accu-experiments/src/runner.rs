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
//! ## Lineups, scheduling and self-healing
//!
//! The runner runs a *lineup*: cells (a [`FigureRun`] and a
//! [`PolicyKind`] each) over the same sampled networks, as the paper
//! scores every algorithm. The unit of work is one network: a worker
//! claims the next pending one in index order, generates it once, runs
//! every cell on it in cell order, each with the instance, seeds and
//! fault plans it would get alone (see [`run_network`]), each policy
//! instantiated once and every episode run in order in the worker's
//! [`EpisodeScratch`], and retires it. [`retire`] is every network's
//! one exit, whether its cells are folded, quarantined or shed.
//!
//! Each worker contains its own failures: a panic while it holds a
//! network is caught, and the worker runs that network again, once, in
//! place, spending one of the lineup's 32 restarts. Injected chaos
//! fires on a network's first attempt only, so a second panic is a bug
//! in the network: every cell quarantines it at stage `"supervisor"`.
//! A panic in a cell's episode loop quarantines that cell's network at
//! stage `"episodes"`, with no retry. Networks fold, and stream their
//! `run.network` lines, in index order whichever worker ran them, so
//! every aggregate (and therefore every figure CSV) and the progress
//! stream are byte-identical under any worker count and any panic or
//! stall schedule. Only when the restart budget itself is spent does
//! the lineup fail, with a typed [`RunnerError::WorkerPanicked`].
//!
//! A soft deadline ([`RunOptions::deadline`]) turns overruns into
//! *graceful degradation*: networks claimed after the deadline passes
//! are shed, in every cell, instead of run. The claim decides
//! shed-or-run under its lock with one clock read, and claims go in
//! ascending index order, so the surviving set is a prefix, independent
//! of worker count. Shed networks are reported as `run.network` events
//! with status `shed` and counted on each [`RunReport`] so binaries can
//! tag their output as degraded.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use accu_core::chaos::{chaos_metrics, ChaosConfig, WorkerFault};
use accu_core::policy::{
    Abm, AbmWeights, CentralityKind, CentralityPolicy, MaxDegree, PageRankPolicy, Random, Snowball,
};
use accu_core::{
    engine_metrics, repair_instance, run_attack_with, validate_metrics, AccuError, AccuInstance,
    AttackOptions, EpisodeScratch, FaultConfig, FaultPlan, Policy, RetryPolicy, TraceAccumulator,
    ValidationMode, Violation,
};
use accu_telemetry::obs::Observer;
use accu_telemetry::{
    CounterHandle, Event, GaugeHandle, HistogramHandle, Recorder, Severity, TraceTrack, TraceValue,
    Tracer,
};
use osn_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};

use crate::checkpoint::Checkpoint;

/// Metric names emitted by the experiment runner.
pub mod runner_metrics {
    /// Counter: (cell, network) pairs folded across all workers.
    pub const NETWORKS: &str = "runner.networks";
    /// Counter: attack episodes completed across all workers.
    pub const EPISODES: &str = "runner.episodes";
    /// Counter: worker threads spawned for the run.
    pub const WORKERS: &str = "runner.workers";
    /// Counter: (cell, network) pairs quarantined after a panic or a
    /// dataset / protocol error (registered only when a failure occurs).
    pub const QUARANTINED: &str = "runner.quarantined";
    /// Counter: (cell, network) pairs skipped because a resumed
    /// checkpoint already covered them (registered only on resume).
    pub const RESUMED: &str = "runner.resumed";
    /// Histogram: wall-clock nanoseconds per sampled network, one
    /// sample per network: graph generation plus every cell's protocol
    /// and repetitions.
    pub const NETWORK_NS: &str = "runner.network_ns";
    /// Gauge: networks currently in flight (initialized but not yet
    /// retired) — visible live on the `--metrics-addr` endpoint.
    pub const NETWORKS_INFLIGHT: &str = "runner.networks_inflight";
    /// Counter: network retries after a panic, each spending one of the
    /// run's restarts (registered only when a retry happens).
    pub const SUPERVISOR_RESTARTS: &str = "runner.supervisor.restarts";
    /// Counter: panics caught while a worker held a network.
    pub const SUPERVISOR_PANICS: &str = "runner.supervisor.worker_panics";
    /// Counter: (cell, network) pairs shed by the soft deadline.
    pub const SUPERVISOR_SHED: &str = "runner.supervisor.shed_networks";
    /// Per-worker episode-throughput counter. Comparing these across
    /// workers exposes load imbalance (ideally near-equal).
    pub fn worker_episodes(worker: usize) -> String {
        format!("runner.worker.{worker}.episodes")
    }
}

/// Network retries the workers may spend in one lineup; a panic that
/// finds them spent fails it with [`RunnerError::WorkerPanicked`].
const MAX_RESTARTS: u32 = 32;

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
    /// Which stage failed: `"dataset"`, `"protocol"`, `"validate"`,
    /// `"episodes"`, or `"supervisor"` (the network panicked twice).
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

/// Errors surfaced by [`run_lineup_with`].
#[derive(Debug)]
#[non_exhaustive]
pub enum RunnerError {
    /// A worker panicked while holding a network, with the lineup's 32
    /// restarts already spent.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
        /// Its panic message.
        message: String,
        /// (Cell, network) pairs that completed before the failure
        /// surfaced.
        completed_networks: usize,
    },
    /// The checkpoint file could not be created, read, or appended to.
    Checkpoint(std::io::Error),
    /// A cell's [`FaultConfig`] is invalid.
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

/// Everything a run can carry besides its cells: the
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
    /// Cap on worker threads (`None` = available parallelism). Each
    /// worker runs whole networks, so a run never uses more workers
    /// than it has networks to compute.
    pub max_workers: Option<usize>,
    /// Infrastructure chaos schedule (worker panics / stalls injected at
    /// network claim). The trivial default injects nothing at zero cost.
    pub chaos: ChaosConfig,
    /// Soft deadline; once it passes, networks not yet claimed are shed
    /// instead of run (graceful degradation), except the first
    /// [`DEADLINE_MIN_NETWORKS`]. Networks are claimed in ascending
    /// index order, so the survivors are a prefix of the sample list
    /// whatever the worker count. `None` never sheds.
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
            chaos: ChaosConfig::none(),
            deadline: None,
        }
    }
}

/// Networks below this index are never shed: a degraded run always
/// aggregates at least this many samples (clamped to the figure's
/// `network_samples`), so confidence intervals stay computable.
pub const DEADLINE_MIN_NETWORKS: usize = 2;

/// The full result of a hardened run: the aggregate plus everything
/// that went wrong or was skipped along the way.
#[derive(Debug, PartialEq)]
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
    /// Network retries the workers spent healing panics, over the
    /// whole lineup (at most 32).
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

/// Runs `policy` over all sampled networks and repetitions of `figure`:
/// the one-cell lineup of [`run_lineup_with`], with its errors.
pub fn run_policy_with(
    figure: &FigureRun,
    policy: PolicyKind,
    opts: RunOptions<'_>,
) -> Result<RunReport, RunnerError> {
    let mut reports = run_lineup_with(&[(figure.clone(), policy)], opts)?;
    Ok(reports.pop().expect("one report per cell"))
}

/// Runs every cell of a lineup — a figure and a policy each — over the
/// sampled networks and repetitions they share, in parallel across
/// worker threads, and returns one [`RunReport`] per cell, in cell
/// order, with everything that went wrong or was skipped along the way.
/// Each worker generates a network once and runs every cell on it.
/// `opts` carries the instrumentation, the checkpoint (each completed
/// network is appended to it, one line per cell, and a network every
/// cell has on file is resumed instead of recomputed), and the
/// scheduling knobs.
///
/// Deterministic given the cells' seed: network `i` always uses the same
/// derived RNG streams regardless of thread scheduling, so every cell
/// faces identical networks, realizations, and fault plans (paired
/// comparison — the paper's setup), and each cell's report equals the
/// report of that cell run alone. Results are bit-identical across
/// every `max_workers` setting, and for every tracer configuration:
/// tracing only observes, never steers.
///
/// With an enabled tracer every worker gets its own [`TraceTrack`] (one
/// Perfetto thread track per worker), stage spans cover network
/// load/validate, the episode loop (which folds each outcome as it
/// finishes), and checkpoint appends, and
/// — on episodes selected by the tracer's sampling period — the
/// simulator and policy emit per-request and per-decision events
/// bracketed by `episode_begin`/`episode_end`. The progress stream of
/// [`RunOptions::events`] is one `run.begin` … `run.end` section per
/// lineup, byte-identical across worker counts: every streamed field
/// derives from the deterministic episode-order fold, and each network's
/// per-cell `run.network` lines are written in (network, cell) order.
///
/// The figure binaries reach this through
/// [`Telemetry::run`](crate::Telemetry::run), which passes every runner
/// flag and exits on any error.
///
/// # Errors
///
/// * [`RunnerError::InvalidFaults`] if a cell's `faults` is out of range;
/// * [`RunnerError::Checkpoint`] if appending to the checkpoint fails;
/// * [`RunnerError::WorkerPanicked`] if a worker panics with the
///   lineup's restart budget already spent.
///
/// # Panics
///
/// If `cells` is empty, or its cells differ in dataset, seed,
/// `network_samples` or `runs_per_network`.
pub fn run_lineup_with(
    cells: &[(FigureRun, PolicyKind)],
    opts: RunOptions<'_>,
) -> Result<Vec<RunReport>, RunnerError> {
    let first = &cells.first().expect("a lineup has at least one cell").0;
    assert!(
        cells.iter().all(|(f, _)| f.dataset == first.dataset
            && f.seed == first.seed
            && f.network_samples == first.network_samples
            && f.runs_per_network == first.runs_per_network),
        "a lineup's cells share dataset, seed, network_samples and runs_per_network"
    );
    for (figure, _) in cells {
        figure
            .faults
            .validate()
            .map_err(RunnerError::InvalidFaults)?;
    }
    let RunOptions {
        recorder,
        tracer,
        events,
        checkpoint,
        max_workers,
        chaos,
        deadline,
    } = opts;
    let labels: Vec<String> = cells.iter().map(|(f, p)| f.cell_label(*p)).collect();
    // A network resumes only when every cell has it on file.
    let mut retired = BTreeMap::new();
    if let Some(ckpt) = &checkpoint {
        let on_file: Vec<BTreeMap<usize, TraceAccumulator>> = cells
            .iter()
            .zip(&labels)
            .map(|((f, _), label)| {
                let mut done = ckpt.completed(label);
                done.retain(|_, acc| acc.budget() == f.budget);
                done
            })
            .collect();
        for net in 0..first.network_samples {
            let fates: Option<Vec<Fate>> = on_file
                .iter()
                .map(|done| done.get(&net).cloned().map(Fate::Resumed))
                .collect();
            if let Some(fates) = fates {
                retired.insert(net, fates);
            }
        }
    }
    let resumed = retired.len() * cells.len();
    if resumed > 0 {
        recorder
            .counter(runner_metrics::RESUMED)
            .add(resumed as u64);
    }
    events.emit(|| {
        Event::info("run.begin")
            .arg("cells", labels.join("\n"))
            .arg("networks", first.network_samples * cells.len())
            .arg(
                "episodes",
                cells.iter().map(|(f, _)| f.episodes()).sum::<usize>(),
            )
    });
    // Every network the checkpoint does not cover, in index order.
    let pending: VecDeque<usize> = (0..first.network_samples)
        .filter(|net| !retired.contains_key(net))
        .collect();
    // Spawn at most one worker per pending network, and report the
    // post-clamp count actually spawned.
    let threads = max_workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(pending.len());
    recorder
        .counter(runner_metrics::WORKERS)
        .add(threads as u64);
    let ctx = RunCtx {
        cells,
        labels: &labels,
        recorder: &recorder,
        tracer: &tracer,
        events: &events,
        chaos,
        deadline,
        pending: Mutex::new(pending),
        retired: Mutex::new((retired, 0)),
        restarts: AtomicU32::new(0),
        panicked: Mutex::new(None),
        checkpoint: Mutex::new(Ok(checkpoint)),
        #[cfg(test)]
        repeat_chaos: tests::REPEAT_CHAOS.get(),
    };
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let ctx = &ctx;
            scope.spawn(move || worker_loop(ctx, worker));
        }
    });
    let RunCtx {
        retired,
        restarts,
        panicked,
        checkpoint,
        ..
    } = ctx;
    let (retired, streamed) = retired.into_inner().expect("results mutex poisoned");
    // Whatever has not streamed yet — resumed networks no worker
    // reached, or what retired past the gap an aborted lineup left —
    // streams now, in index order.
    for (&net, fates) in retired.range(streamed..) {
        stream_network(&events, net, fates);
    }
    let restarts = restarts.into_inner() as usize;
    let mut reports: Vec<RunReport> = cells
        .iter()
        .map(|(figure, _)| RunReport {
            accumulator: TraceAccumulator::new(figure.budget),
            quarantined: Vec::new(),
            resumed_networks: 0,
            completed_networks: 0,
            repaired_networks: 0,
            shed_networks: 0,
            supervisor_restarts: restarts,
        })
        .collect();
    // Merge in network order: independent of thread scheduling, and
    // identical whether a network was computed fresh or resumed.
    for fates in retired.into_values() {
        for (report, fate) in reports.iter_mut().zip(fates) {
            let (acc, repaired) = match fate {
                Fate::Folded { acc, repaired } => (acc, repaired),
                Fate::Resumed(acc) => {
                    report.resumed_networks += 1;
                    (acc, false)
                }
                Fate::Quarantined(failure) => {
                    report.quarantined.push(failure);
                    continue;
                }
                Fate::Shed => {
                    report.shed_networks += 1;
                    continue;
                }
            };
            report.accumulator.merge(&acc);
            report.completed_networks += 1;
            report.repaired_networks += usize::from(repaired);
        }
    }
    let total = |count: fn(&RunReport) -> usize| reports.iter().map(count).sum::<usize>();
    let completed = total(|r| r.completed_networks);
    // An aborted lineup still closes its section with `run.fail`.
    let fail = |why: String| {
        events.emit(|| {
            Event::error("run.fail")
                .arg("completed", completed)
                .msg(why)
        });
    };
    if let Some((worker, message)) = panicked.into_inner().expect("results mutex poisoned") {
        fail(format!(
            "worker {worker} panicked with the restart budget exhausted: {message}"
        ));
        return Err(RunnerError::WorkerPanicked {
            worker,
            message,
            completed_networks: completed,
        });
    }
    if let Err(e) = checkpoint.into_inner().expect("checkpoint mutex poisoned") {
        fail(format!("checkpoint write failed: {e}"));
        return Err(RunnerError::Checkpoint(e));
    }
    events.emit(|| {
        Event::info("run.end")
            .arg("completed", completed)
            .arg("resumed", resumed)
            .arg("quarantined", total(|r| r.quarantined.len()))
            .arg("shed", total(|r| r.shed_networks))
            .arg("episodes", total(|r| r.accumulator.runs()))
    });
    Ok(reports)
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

/// Everything the workers share for one lineup, bundled so it crosses
/// the `thread::scope` boundary as a single reference. `'ck` is the
/// checkpoint borrow.
struct RunCtx<'env, 'ck> {
    cells: &'env [(FigureRun, PolicyKind)],
    /// Each cell's checkpoint label.
    labels: &'env [String],
    recorder: &'env Recorder,
    tracer: &'env Tracer,
    /// Progress observer for the lifecycle events.
    events: &'env Observer,
    chaos: ChaosConfig,
    deadline: Option<Instant>,
    /// Networks not yet claimed, in index order. A lineup that fails
    /// clears it, so every worker stops at its next claim.
    pending: Mutex<VecDeque<usize>>,
    /// Every network [`retire`] has ended (or the checkpoint resumed),
    /// with each cell's fate, and how many networks have streamed: the
    /// lines of networks `0..streamed` are written.
    retired: Mutex<(BTreeMap<usize, Vec<Fate>>, usize)>,
    /// Network retries spent so far, out of [`MAX_RESTARTS`].
    restarts: AtomicU32,
    /// The panic that found the restart budget spent: `(worker,
    /// message)`; the first one wins.
    panicked: Mutex<Option<(usize, String)>>,
    /// Where folded networks are appended. The first failed append
    /// replaces the handle with its error, which ends checkpointing for
    /// the rest of the lineup and fails it at the end.
    checkpoint: Mutex<Result<Option<&'ck mut Checkpoint>, std::io::Error>>,
    /// Test hook: injected chaos fires on both attempts at a network,
    /// so a network can panic twice.
    #[cfg(test)]
    repeat_chaos: bool,
}

impl RunCtx<'_, '_> {
    /// Claims the next pending network, in index order, and whether to
    /// shed it: once the soft deadline has passed, every network from
    /// [`DEADLINE_MIN_NETWORKS`] on is shed. Both are decided under the
    /// one lock with one clock read, so once a claim sheds, every later
    /// claim sheds too, and the networks that run are a prefix of the
    /// sample list whatever the worker count. `None` once nothing is
    /// pending.
    fn claim(&self) -> Option<(usize, bool)> {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let net = pending.pop_front()?;
        let shed =
            net >= DEADLINE_MIN_NETWORKS && self.deadline.is_some_and(|at| Instant::now() >= at);
        Some((net, shed))
    }
}

/// How a network leaves one cell of the lineup.
#[derive(Clone)]
enum Fate {
    /// Every episode ran: the cell's accumulator, and whether its
    /// instance was repaired.
    Folded {
        acc: TraceAccumulator,
        repaired: bool,
    },
    /// Loaded from the checkpoint.
    Resumed(TraceAccumulator),
    /// Dropped from the aggregate.
    Quarantined(NetworkFailure),
    /// Shed by the soft deadline before it started.
    Shed,
}

/// Emits network `net`'s `run.network` lines, one per cell in cell
/// order, each with the cell's index and its status.
fn stream_network(events: &Observer, net: usize, fates: &[Fate]) {
    for (cell, fate) in fates.iter().enumerate() {
        events.emit(|| {
            let line = |sev, status: &'static str| {
                Event::new(sev, "run.network")
                    .network(net as u64)
                    .arg("cell", cell)
                    .arg("status", status)
            };
            match fate {
                Fate::Folded { acc, repaired } => line(Severity::Info, "ok")
                    .arg("episodes", acc.runs() as u64)
                    .arg("mean_benefit", acc.mean_total_benefit())
                    .arg("faults_mean", acc.mean_faults_seen())
                    .arg("repaired", *repaired),
                Fate::Resumed(acc) => line(Severity::Info, "resumed")
                    .arg("episodes", acc.runs() as u64)
                    .arg("mean_benefit", acc.mean_total_benefit()),
                Fate::Quarantined(failure) => line(Severity::Warn, "quarantined")
                    .arg("stage", failure.stage)
                    .arg("message", failure.message.clone()),
                Fate::Shed => line(Severity::Warn, "shed"),
            }
        });
    }
}

/// One worker's own state, made once per thread: its id, trace track,
/// episode scratch and telemetry handles.
struct Worker {
    id: usize,
    track: TraceTrack,
    scratch: EpisodeScratch,
    networks: CounterHandle,
    episodes: CounterHandle,
    worker_episodes: CounterHandle,
    network_ns: HistogramHandle,
    networks_inflight: GaugeHandle,
    scratch_reuses: CounterHandle,
    scratch_allocs: CounterHandle,
    chunk_ns: HistogramHandle,
}

impl Worker {
    fn new(ctx: &RunCtx<'_, '_>, id: usize) -> Self {
        let recorder = ctx.recorder;
        Worker {
            id,
            track: ctx.tracer.track(&format!("worker-{id}")),
            scratch: EpisodeScratch::new(),
            networks: recorder.counter(runner_metrics::NETWORKS),
            episodes: recorder.counter(runner_metrics::EPISODES),
            worker_episodes: recorder.counter(runner_metrics::worker_episodes(id)),
            network_ns: recorder.histogram(runner_metrics::NETWORK_NS),
            networks_inflight: recorder.gauge(runner_metrics::NETWORKS_INFLIGHT),
            scratch_reuses: recorder.counter(engine_metrics::SCRATCH_REUSES),
            scratch_allocs: recorder.counter(engine_metrics::SCRATCH_ALLOCS),
            chunk_ns: recorder.histogram(engine_metrics::CHUNK_NS),
        }
    }
}

/// One self-healing worker: claims networks until none is pending and
/// runs each to its fates (see [`settle`]), then out through [`retire`].
/// A panic that finds the restart budget spent leaves its network
/// unretired and ends the worker.
fn worker_loop(ctx: &RunCtx<'_, '_>, id: usize) {
    let mut w = Worker::new(ctx, id);
    while let Some((net, shed)) = ctx.claim() {
        ctx.events.heartbeat();
        if shed {
            retire(ctx, &w, net, vec![Fate::Shed; ctx.cells.len()]);
            continue;
        }
        let started = Instant::now();
        w.networks_inflight.add(1);
        let Some(fates) = settle(ctx, &mut w, net) else {
            return;
        };
        w.networks_inflight.sub(1);
        w.network_ns.record(started.elapsed().as_nanos() as u64);
        retire(ctx, &w, net, fates);
    }
}

/// Runs network `net` to its per-cell fates, catching any panic while
/// the worker holds it. A panicked network is run again, once, in place,
/// spending one of the lineup's restarts; a second panic quarantines it
/// at stage `supervisor` in every cell. Injected chaos fires on the
/// first attempt only, so a retry always makes progress. `None` when a
/// panic finds the restart budget spent: the lineup then fails, and no
/// further network is claimed.
fn settle(ctx: &RunCtx<'_, '_>, w: &mut Worker, net: usize) -> Option<Vec<Fate>> {
    let id = w.id;
    #[cfg(not(test))]
    let retry_chaos = false;
    #[cfg(test)]
    let retry_chaos = ctx.repeat_chaos;
    let mut attempt = |chaos: bool| {
        catch_unwind(AssertUnwindSafe(|| {
            if chaos {
                inject_worker_fault(ctx, net);
            }
            run_network(ctx, w, net)
        }))
        .map_err(|payload| {
            ctx.recorder
                .counter(runner_metrics::SUPERVISOR_PANICS)
                .incr();
            panic_message(payload.as_ref())
        })
    };
    let message = match attempt(true) {
        Ok(fates) => return Some(fates),
        Err(message) => message,
    };
    let spent = ctx
        .restarts
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < MAX_RESTARTS).then_some(n + 1)
        });
    let Ok(before) = spent else {
        eprintln!(
            "runner: worker {id} panicked ({message}) with the \
             restart budget exhausted; aborting the run"
        );
        ctx.panicked
            .lock()
            .expect("results mutex poisoned")
            .get_or_insert((id, message));
        ctx.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        return None;
    };
    ctx.recorder
        .counter(runner_metrics::SUPERVISOR_RESTARTS)
        .incr();
    eprintln!(
        "runner: worker {id} panicked ({message}); restart {}/{MAX_RESTARTS}",
        before + 1
    );
    Some(attempt(retry_chaos).unwrap_or_else(|message| {
        let failure = NetworkFailure {
            network: net,
            stage: "supervisor",
            message: format!("panicked twice; last panic: {message}"),
        };
        vec![Fate::Quarantined(failure); ctx.cells.len()]
    }))
}

/// Injects the chaos config's worker fault for network `net`, if any: a
/// stall, or a panic raised with [`resume_unwind`], which skips the
/// panic hook, so a healed injected panic prints only its restart line.
fn inject_worker_fault(ctx: &RunCtx<'_, '_>, net: usize) {
    match ctx.chaos.worker_fault(net) {
        Some(WorkerFault::Panic) => {
            ctx.recorder.counter(chaos_metrics::WORKER_PANICS).incr();
            resume_unwind(Box::new(format!(
                "chaos: injected worker panic (net {net})"
            )));
        }
        Some(WorkerFault::Stall(pause)) => {
            ctx.recorder.counter(chaos_metrics::WORKER_STALLS).incr();
            std::thread::sleep(pause);
        }
        None => {}
    }
}

/// Ends network `net` with one fate per cell: the one exit of every
/// network, whether its cells are folded, quarantined at any stage or
/// shed. Checkpoints each folded cell and counts each fate, then files
/// the network and streams every network the stream is no longer
/// waiting on, in index order.
fn retire(ctx: &RunCtx<'_, '_>, w: &Worker, net: usize, fates: Vec<Fate>) {
    let mut checkpoint = ctx.checkpoint.lock().expect("checkpoint mutex poisoned");
    for (label, fate) in ctx.labels.iter().zip(&fates) {
        match fate {
            Fate::Folded { acc, .. } => {
                w.networks.incr();
                let _span = w
                    .track
                    .span_with("checkpoint", &[("net", TraceValue::U64(net as u64))]);
                if let Ok(Some(file)) = &mut *checkpoint {
                    if let Err(e) = file.record(label, net, acc) {
                        *checkpoint = Err(e);
                    }
                }
            }
            Fate::Quarantined(_) => ctx.recorder.counter(runner_metrics::QUARANTINED).incr(),
            Fate::Shed => ctx.recorder.counter(runner_metrics::SUPERVISOR_SHED).incr(),
            Fate::Resumed(_) => {}
        }
    }
    drop(checkpoint);
    let mut retired = ctx.retired.lock().expect("results mutex poisoned");
    let (done, streamed) = &mut *retired;
    done.insert(net, fates);
    while let Some(next) = done.get(streamed) {
        stream_network(ctx.events, *streamed, next);
        *streamed += 1;
    }
}

/// One built instance of a network: the instance, the seeds its
/// episodes and its policies draw from, and the network stream as
/// generation left it, for the next protocol on the same graph.
struct NetworkState {
    instance: AccuInstance,
    /// Episode seeds, drawn from the network stream in episode order.
    run_seeds: Vec<u64>,
    policy_seed: u64,
    was_repaired: bool,
    generated: StdRng,
}

/// Builds network `net_index`'s instance for `cells` that share a
/// protocol and validation, on the graph a previous instance handed back
/// (with the stream as generation left it) or on a freshly generated
/// one, repairs or rejects it per the validation mode, then pre-draws
/// every episode seed from the network stream. Emits `load` and
/// `validate` stage spans onto `track` when tracing is live.
fn init_network(
    ctx: &RunCtx<'_, '_>,
    track: &TraceTrack,
    net_index: usize,
    cells: &[(FigureRun, PolicyKind)],
    generated: Option<(Graph, StdRng)>,
) -> Result<NetworkState, NetworkFailure> {
    let figure = &cells[0].0;
    let fail = |stage: &'static str, message: String| NetworkFailure {
        network: net_index,
        stage,
        message,
    };
    let load_span = track.span_with("load", &[("net", TraceValue::U64(net_index as u64))]);
    let (graph, generated) = match generated {
        Some(handed_back) => handed_back,
        None => {
            // Derive a per-network stream so results do not depend on
            // thread scheduling.
            let mut net_rng = StdRng::seed_from_u64(
                figure
                    .seed
                    .wrapping_add((net_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let graph = figure
                .dataset
                .generate(&mut net_rng)
                .map_err(|e| fail("dataset", e.to_string()))?;
            (graph, net_rng)
        }
    };
    let mut net_rng = generated.clone();
    let instance = apply_protocol(graph, &figure.protocol, &mut net_rng)
        .map_err(|e| fail("protocol", e.to_string()))?;
    drop(load_span);
    let validate_span = track.span_with("validate", &[("net", TraceValue::U64(net_index as u64))]);
    // Validation outcomes count once per cell sharing the instance.
    let count = |name, n: usize| ctx.recorder.counter(name).add((n * cells.len()) as u64);
    let (instance, was_repaired) = match figure.validation.repair_mode() {
        None => (instance, false),
        Some(mode) => match repair_instance(instance, mode) {
            Ok((instance, report)) => {
                if !report.is_clean() {
                    count(validate_metrics::VIOLATIONS, report.violations.len());
                    count(validate_metrics::REPAIRED_NETWORKS, 1);
                    count(validate_metrics::BENEFIT_FIXES, report.benefit_fixes);
                    count(validate_metrics::DEMOTED_USERS, report.demoted_users);
                    if report.lambda_guarantee_void() {
                        count(validate_metrics::LAMBDA_GUARANTEE_VOID, 1);
                    }
                }
                (instance, !report.is_clean())
            }
            Err(violations) => {
                count(validate_metrics::VIOLATIONS, violations.len());
                count(validate_metrics::REJECTED_NETWORKS, 1);
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
        generated,
    })
}

/// Runs every cell of the lineup on network `net`, in cell order, and
/// returns their fates. Consecutive cells with the same protocol and
/// validation share one instance; the next protocol is applied to the
/// graph that instance hands back, drawing from the network stream as
/// generation left it, so each cell gets the instance and seeds it would
/// get alone and the worker holds one graph at a time. The graph is
/// generated again only when a failed protocol or validation consumed it.
fn run_network(ctx: &RunCtx<'_, '_>, w: &mut Worker, net: usize) -> Vec<Fate> {
    let mut fates = Vec::with_capacity(ctx.cells.len());
    let mut generated = None;
    let shared = |(a, _): &(FigureRun, PolicyKind), (b, _): &(FigureRun, PolicyKind)| {
        a.protocol == b.protocol && a.validation == b.validation
    };
    for group in ctx.cells.chunk_by(shared) {
        match init_network(ctx, &w.track, net, group, generated.take()) {
            Ok(state) => {
                for (figure, policy) in group {
                    fates.push(run_episodes(ctx, w, net, figure, *policy, &state));
                }
                generated = Some((state.instance.into_graph(), state.generated));
            }
            Err(failure) => fates.extend(vec![Fate::Quarantined(failure); group.len()]),
        }
    }
    fates
}

/// Runs every episode of one cell on a built network: the policy is
/// instantiated once, the episodes run in order in the worker's
/// [`EpisodeScratch`], and each outcome folds into the cell's
/// accumulator as its episode finishes. Returns the cell's fate: folded,
/// or quarantined by a panic in the episode loop (stage `episodes`, not
/// retried), which drops the partial accumulator.
///
/// Tracing: the episode loop runs under an `episodes` span on the
/// worker's `track`; each episode toggles the track's sampling gate by
/// its run-global index (`net × runs_per_network + ep`), so sampled
/// episodes carry `episode_begin`/`episode_end` markers plus the
/// simulator's and policy's per-step events.
fn run_episodes(
    ctx: &RunCtx<'_, '_>,
    w: &mut Worker,
    net: usize,
    figure: &FigureRun,
    policy: PolicyKind,
    state: &NetworkState,
) -> Fate {
    let track = &w.track;
    // `engine.chunk_ns`: policy set-up plus the episode loop.
    let loop_span = w.chunk_ns.span();
    let episodes = catch_unwind(AssertUnwindSafe(|| {
        let mut policy_impl =
            policy.instantiate_instrumented(state.policy_seed, ctx.recorder, track);
        let mut acc = TraceAccumulator::new(figure.budget);
        let episodes_trace = track.span_with("episodes", &[("net", TraceValue::U64(net as u64))]);
        for (ep, &run_seed) in state.run_seeds.iter().enumerate() {
            if w.scratch.prepare(&state.instance) {
                w.scratch_reuses.incr();
            } else {
                w.scratch_allocs.incr();
            }
            w.scratch
                .realization
                .sample_into(&state.instance, &mut StdRng::seed_from_u64(run_seed));
            // Episode indices are global across the run, so which
            // episodes a sampling period selects is independent of
            // thread count.
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
                        ("policy", TraceValue::from(policy.name())),
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
                &mut w.scratch,
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
            acc.add(outcome);
            w.episodes.incr();
            w.worker_episodes.incr();
            ctx.events.episode_done(outcome.faults.faults_seen() as u64);
        }
        drop(episodes_trace);
        acc
    }));
    loop_span.finish();
    // Re-open the gate so the stage spans that follow (checkpoint, the
    // next network's load) emit even when the last episode was
    // unsampled — or when the loop panicked with the gate closed.
    if track.is_enabled() {
        track.set_active(true);
    }
    match episodes {
        Ok(acc) => Fate::Folded {
            acc,
            repaired: state.was_repaired,
        },
        Err(payload) => Fate::Quarantined(NetworkFailure {
            network: net,
            stage: "episodes",
            message: panic_message(payload.as_ref()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// Runs started on this thread inject their chaos on both
        /// attempts at a network, not only the first, so a network can
        /// panic twice.
        pub(super) static REPEAT_CHAOS: Cell<bool> = const { Cell::new(false) };
    }

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

    /// A run on at most `workers` threads.
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
            .map(|n| Violation::BenefitGapCollapsed {
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
    fn worker_count_never_changes_the_aggregate() {
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
            PolicyKind::Random,
            PolicyKind::Snowball,
        ] {
            let one = tuned(&fig, policy, &Recorder::disabled(), 1);
            let three = tuned(&fig, policy, &Recorder::disabled(), 3);
            assert_eq!(
                one.accumulator,
                three.accumulator,
                "{} must not depend on the worker count",
                policy.name()
            );
            assert_eq!(three.completed_networks, fig.network_samples);
        }
    }

    #[test]
    fn four_workers_match_the_default_entry_point() {
        let fig = FigureRun {
            runs_per_network: 5,
            ..tiny_figure()
        };
        let reference = run(&fig, PolicyKind::abm_balanced());
        let four = tuned(&fig, PolicyKind::abm_balanced(), &Recorder::disabled(), 4);
        assert_eq!(reference, four.accumulator);
    }

    #[test]
    fn engine_counters_account_every_episode_and_network() {
        let fig = FigureRun {
            runs_per_network: 4,
            ..tiny_figure()
        };
        let recorder = Recorder::enabled();
        let report = tuned(&fig, PolicyKind::abm_balanced(), &recorder, 2);
        assert!(report.quarantined.is_empty());
        let snap = recorder.snapshot("engine").unwrap();
        let episodes = fig.episodes() as u64;
        let networks = fig.network_samples as u64;
        let reuses = snap.counter(engine_metrics::SCRATCH_REUSES).unwrap_or(0);
        let allocs = snap.counter(engine_metrics::SCRATCH_ALLOCS).unwrap();
        // Every episode prepares the scratch exactly once; a worker
        // only allocates when its high-water instance size grows, so at
        // worst once per network.
        assert_eq!(reuses + allocs, episodes);
        assert!(allocs >= 1 && allocs <= networks, "allocs = {allocs}");
        // One timing sample per folded network: policy set-up plus its
        // episode loop.
        let chunk_ns = snap.histogram(engine_metrics::CHUNK_NS).unwrap();
        assert_eq!(chunk_ns.count, networks);
        assert_eq!(report.completed_networks as u64, networks);
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

    #[test]
    fn chaos_worker_panics_are_healed_by_supervisor() {
        // panic=1.0 panics on the first attempt at every network; the
        // in-place retry is fault-free, so the healed run must match the
        // clean run bit-for-bit.
        let fig = tiny_figure();
        let reference = run(&fig, PolicyKind::abm_balanced());
        let chaos = ChaosConfig {
            worker_panic: 1.0,
            ..ChaosConfig::none()
        };
        let recorder = Recorder::enabled();
        let report = run_policy_with(
            &fig,
            PolicyKind::abm_balanced(),
            RunOptions {
                recorder: recorder.clone(),
                chaos,
                max_workers: Some(2),
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
    fn deadline_passing_between_claims_keeps_the_survivors_a_prefix() {
        // Every network stalls 30 ms on its first attempt, so a deadline
        // 150 ms out passes while the 40 networks are still being
        // claimed: the first claims run, every later one is shed.
        // Whichever claim is the first to see the deadline, the
        // survivors are the networks 0..j, so the aggregate equals a
        // fresh run over j samples.
        let fig = FigureRun {
            network_samples: 40,
            runs_per_network: 1,
            ..tiny_figure()
        };
        let chaos = ChaosConfig {
            worker_stall: 1.0,
            stall_ms: 30,
            ..ChaosConfig::none()
        };
        for workers in [1usize, 3] {
            let report = run_policy_with(
                &fig,
                PolicyKind::MaxDegree,
                RunOptions {
                    max_workers: Some(workers),
                    chaos,
                    deadline: Some(Instant::now() + Duration::from_millis(150)),
                    ..RunOptions::default()
                },
            )
            .unwrap();
            let j = report.completed_networks;
            assert!(
                j > DEADLINE_MIN_NETWORKS && j < fig.network_samples,
                "the deadline must pass mid-run: {j} of {} ran (workers={workers})",
                fig.network_samples
            );
            assert_eq!(report.shed_networks, fig.network_samples - j);
            let prefix = FigureRun {
                network_samples: j,
                ..fig.clone()
            };
            assert_eq!(
                report.accumulator,
                run(&prefix, PolicyKind::MaxDegree),
                "the {j} survivors must be networks 0..{j} (workers={workers})"
            );
        }
    }

    #[test]
    fn exhausted_network_attempts_quarantine_with_supervisor_stage() {
        // With the chaos repeated on the retry, every network panics
        // twice: each spends one restart on its retry, then dies at
        // stage "supervisor", exactly once.
        let fig = tiny_figure();
        let chaos = ChaosConfig {
            worker_panic: 1.0,
            ..ChaosConfig::none()
        };
        let recorder = Recorder::enabled();
        REPEAT_CHAOS.set(true);
        let report = run_policy_with(
            &fig,
            PolicyKind::abm_balanced(),
            RunOptions {
                recorder: recorder.clone(),
                chaos,
                max_workers: Some(1),
                ..RunOptions::default()
            },
        );
        REPEAT_CHAOS.set(false);
        let report = report.unwrap();
        assert_eq!(report.quarantined.len(), fig.network_samples);
        assert!(report.quarantined.iter().all(|f| f.stage == "supervisor"));
        assert!(report.quarantined[0].message.contains("panicked twice"));
        assert_eq!(report.completed_networks, 0);
        assert_eq!(report.accumulator.runs(), 0);
        assert_eq!(report.shed_networks, 0);
        assert_eq!(report.supervisor_restarts, fig.network_samples);
        let snap = recorder.snapshot("twice").unwrap();
        assert_eq!(
            snap.counter(runner_metrics::SUPERVISOR_PANICS),
            Some(2 * fig.network_samples as u64)
        );
        assert_eq!(
            snap.counter(runner_metrics::QUARANTINED),
            Some(fig.network_samples as u64)
        );
    }

    /// `figure` under each policy of the paper's lineup.
    fn paper_cells(figure: &FigureRun) -> Vec<(FigureRun, PolicyKind)> {
        let lineup = PolicyKind::paper_lineup().into_iter();
        lineup.map(|policy| (figure.clone(), policy)).collect()
    }

    /// A scratch file path unique to this process.
    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("accu-runner-{name}-{}", std::process::id()))
    }

    /// The `(network, cell)` keys of a progress stream's `run.network`
    /// lines, in stream order.
    fn network_lines(stream: &str) -> Vec<(u64, u64)> {
        let events = accu_telemetry::read_events(stream).events;
        let lines = events.iter().filter(|e| e.kind == "run.network");
        let cell = |e: &Event| e.get("cell").and_then(TraceValue::as_u64).unwrap();
        lines.map(|e| (e.network.unwrap(), cell(e))).collect()
    }

    #[test]
    #[should_panic(expected = "share dataset, seed")]
    fn a_lineup_rejects_cells_over_different_networks() {
        let fig = tiny_figure();
        let other = FigureRun {
            seed: 7,
            ..fig.clone()
        };
        let cells = [(fig, PolicyKind::MaxDegree), (other, PolicyKind::MaxDegree)];
        let _ = run_lineup_with(&cells, RunOptions::default());
    }

    #[test]
    fn networks_finishing_out_of_order_stream_in_index_order() {
        // A chaos seed that stalls network 0 for 200 ms and leaves
        // networks 1 and 2 alone, so on 3 workers they retire first.
        let chaos = (0..)
            .map(|seed| ChaosConfig {
                worker_stall: 0.5,
                stall_ms: 200,
                seed,
                ..ChaosConfig::none()
            })
            .find(|chaos| {
                chaos.worker_fault(0).is_some()
                    && (1..3).all(|net| chaos.worker_fault(net).is_none())
            })
            .unwrap();
        let cells = paper_cells(&tiny_figure());
        let run = |workers: usize| {
            let (stream, ckpt) = (temp(&format!("order-{workers}")), temp("order.ckpt"));
            let mut checkpoint = Checkpoint::create(&ckpt).unwrap();
            let sink = accu_telemetry::JsonlSink::create(&stream).unwrap();
            let opts = RunOptions {
                events: Observer::new(Some(sink), false),
                checkpoint: Some(&mut checkpoint),
                max_workers: Some(workers),
                chaos,
                ..RunOptions::default()
            };
            run_lineup_with(&cells, opts).unwrap();
            let read = |path| std::fs::read_to_string(&path).unwrap();
            let (stream, ckpt) = (read(stream), read(ckpt));
            (stream, ckpt)
        };
        let (serial, _) = run(1);
        let (parallel, ckpt) = run(3);
        // Appends go in retire order: network 0 retired last.
        let first_append = ckpt.lines().nth(1).unwrap();
        assert!(!first_append.contains("\"net\":0,"), "{first_append}");
        assert_eq!(parallel, serial, "the stream must not depend on scheduling");
        let want: Vec<(u64, u64)> = (0..3).flat_map(|n| (0..4).map(move |c| (n, c))).collect();
        assert_eq!(network_lines(&serial), want);
        std::fs::remove_file(temp("order-1")).ok();
        std::fs::remove_file(temp("order-3")).ok();
        std::fs::remove_file(temp("order.ckpt")).ok();
    }

    #[test]
    fn an_aborted_lineup_streams_what_retired_in_order_then_fails() {
        // Every network panics on its first attempt, so the 33rd panic
        // finds the lineup's 32 restarts spent and aborts it. What
        // retired by then streams in (network, cell) order — past the
        // gap an unretired network leaves — before `run.fail`.
        let fig = FigureRun {
            network_samples: 40,
            runs_per_network: 1,
            ..tiny_figure()
        };
        let cells = [
            (fig.clone(), PolicyKind::MaxDegree),
            (fig, PolicyKind::Random),
        ];
        let chaos = ChaosConfig {
            worker_panic: 1.0,
            ..ChaosConfig::none()
        };
        for workers in [1, 3] {
            let path = temp(&format!("abort-{workers}"));
            let sink = accu_telemetry::JsonlSink::create(&path).unwrap();
            let opts = RunOptions {
                events: Observer::new(Some(sink), false),
                max_workers: Some(workers),
                chaos,
                ..RunOptions::default()
            };
            let Err(RunnerError::WorkerPanicked {
                completed_networks, ..
            }) = run_lineup_with(&cells, opts)
            else {
                panic!("the 33rd panic must abort the lineup");
            };
            let stream = std::fs::read_to_string(&path).unwrap();
            let kinds: Vec<String> = accu_telemetry::read_events(&stream)
                .events
                .iter()
                .map(|e| e.kind.to_string())
                .collect();
            assert_eq!(kinds.first().map(String::as_str), Some("run.begin"));
            assert_eq!(kinds.last().map(String::as_str), Some("run.fail"));
            let lines = network_lines(&stream);
            assert_eq!(lines.len(), completed_networks, "workers={workers}");
            assert!(lines.windows(2).all(|w| w[0] < w[1]), "{lines:?}");
            assert!(lines.chunks(2).all(|p| p[0] == (p[1].0, 0) && p[1].1 == 1));
            if workers == 1 {
                assert_eq!(completed_networks, 2 * MAX_RESTARTS as usize);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_lineup_killed_inside_network_one_resumes_to_the_uninterrupted_reports() {
        let cells = paper_cells(&tiny_figure());
        let path = temp("kill-inside.ckpt");
        let mut ckpt = Checkpoint::create(&path).unwrap();
        let opts = RunOptions {
            checkpoint: Some(&mut ckpt),
            max_workers: Some(1),
            ..RunOptions::default()
        };
        let clean = run_lineup_with(&cells, opts).unwrap();
        drop(ckpt);
        // One worker appends network 0's four cells, then network 1's:
        // the header and 6 appends are what `--chaos kill-after=6`
        // leaves on file.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: String = text
            .lines()
            .take(7)
            .map(|line| format!("{line}\n"))
            .collect();
        std::fs::write(&path, kept).unwrap();
        let mut ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.loaded_entries(), 6);
        let opts = RunOptions {
            checkpoint: Some(&mut ckpt),
            ..RunOptions::default()
        };
        let resumed = run_lineup_with(&cells, opts).unwrap();
        for (clean, resumed) in clean.iter().zip(resumed) {
            assert_eq!(
                resumed.resumed_networks, 1,
                "network 1 is on file for two cells only"
            );
            assert_eq!(
                &RunReport {
                    resumed_networks: 0,
                    ..resumed
                },
                clean
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lineup_telemetry_counts_cell_network_pairs() {
        // Two cells share the clean instance, two the repaired one.
        let (clean, repaired) = (tiny_figure(), unreachable_figure(ValidationMode::Lenient));
        let cells = [
            (clean.clone(), PolicyKind::MaxDegree),
            (clean, PolicyKind::Random),
            (repaired.clone(), PolicyKind::MaxDegree),
            (repaired, PolicyKind::Random),
        ];
        let recorder = Recorder::enabled();
        let opts = RunOptions {
            recorder: recorder.clone(),
            ..RunOptions::default()
        };
        let reports = run_lineup_with(&cells, opts).unwrap();
        let networks = tiny_figure().network_samples as u64;
        assert_eq!(reports[0].repaired_networks, 0);
        assert_eq!(reports[3].repaired_networks as u64, networks);
        let snap = recorder.snapshot("pairs").unwrap();
        assert_eq!(snap.counter(runner_metrics::NETWORKS), Some(4 * networks));
        assert_eq!(
            snap.counter(validate_metrics::REPAIRED_NETWORKS),
            Some(2 * networks)
        );
        let histogram = |name| snap.histogram(name).unwrap().count;
        assert_eq!(histogram(runner_metrics::NETWORK_NS), networks);
        assert_eq!(histogram(engine_metrics::CHUNK_NS), 4 * networks);
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
