//! The crash-only ACCU service daemon.
//!
//! A [`Daemon`] binds a loopback TCP listener, accepts
//! [`Request`](super::protocol::Request) frames, and executes submitted
//! jobs through the hardened runner. There is no shutdown path to get
//! right because *crash is the shutdown path*: every state transition
//! is a durable registry write, execution is fenced by per-job leases,
//! and a restarted daemon (or a second daemon on the same registry)
//! simply adopts whatever non-terminal jobs have no live lease —
//! resuming their checkpoints instead of recomputing.
//!
//! Concretely, per job:
//!
//! 1. a worker dequeues the id and must win the lease (fresh acquire or
//!    stale-lease takeover) before touching it — at most one executor
//!    per epoch, across any number of daemons;
//! 2. a heartbeat thread renews the lease at TTL/4; a failed renewal
//!    means the job was fenced away and the worker discards its work;
//! 3. the run resumes the job's checkpoint (recovering from torn tails,
//!    which are reported in the status record) and streams progress to
//!    `progress.jsonl` for `watch` clients;
//! 4. results publish only after a final epoch re-check, so a zombie
//!    that lost its lease mid-run can never overwrite its successor.
//!
//! Chaos hooks: the configured [`ChaosPlan`] is attached to the
//! checkpoint (site `"checkpoint"`, including the `kill-after` abort),
//! to registry writes (site `"registry"`), to response frames (site
//! `"socket"` — clients see torn frames and must retry), and to the
//! runner's worker faults. A second kill channel,
//! [`DaemonConfig::kill_after_registry`], aborts the process after N
//! durable registry writes — crashing *between* job-level state
//! transitions rather than inside the run.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use accu_core::ChaosPlan;
use accu_telemetry::obs::{BindError, Observer, RunEvents};
use accu_telemetry::{install_panic_dump, Corr, Event, Journal, JsonlSink, Recorder};

use crate::chaosfs::{ChaosFile, ChaosSite};
use crate::checkpoint::Checkpoint;
use crate::runner::{run_policy_with, RunOptions, RunnerError, SupervisorConfig};
use crate::service::protocol::{
    read_frame, write_frame, DaemonHealth, JobRow, Request, Response, ServiceSummary,
};
use crate::service::registry::{JobState, JobStatus, Registry, RegistryError, SubmitOutcome};

/// Idle time after which a connection handler gives up waiting for the
/// next request frame.
const CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval for watch streams and queue waits.
const POLL: Duration = Duration::from_millis(20);

/// Metric names emitted by the service daemon.
///
/// The `service.*` names count submissions and job outcomes; the
/// `serve.*` names are the daemon-operational set (rendered as
/// `accu_serve_*` by the Prometheus encoder).
pub mod service_metrics {
    /// Counter: submissions accepted (all outcomes).
    pub const SUBMISSIONS: &str = "service.submissions";
    /// Counter: jobs finished successfully.
    pub const JOBS_DONE: &str = "service.jobs_done";
    /// Counter: jobs that ended in failure.
    pub const JOBS_FAILED: &str = "service.jobs_failed";
    /// Gauge: queue depth (`accu_serve_queue_depth`).
    pub const QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Gauge: jobs executing in this daemon (`accu_serve_inflight`).
    pub const INFLIGHT: &str = "serve.inflight";
    /// Gauge: oldest running-job lease heartbeat age in milliseconds,
    /// updated every sweep (`accu_serve_lease_heartbeat_age_ms`).
    pub const LEASE_HEARTBEAT_AGE_MS: &str = "serve.lease_heartbeat_age_ms";
    /// Counter: submissions bounced by admission control
    /// (`accu_serve_admission_rejections`).
    pub const ADMISSION_REJECTIONS: &str = "serve.admission_rejections";
    /// Counter: orphans adopted into this daemon's queue by the sweep
    /// (`accu_serve_adoptions`).
    pub const ADOPTIONS: &str = "serve.adoptions";
    /// Counter: stale leases taken over by epoch fencing
    /// (`accu_serve_takeovers`).
    pub const TAKEOVERS: &str = "serve.takeovers";
    /// Counter: executions fenced off before publication
    /// (`accu_serve_fences`).
    pub const FENCES: &str = "serve.fences";
    /// Histogram-name prefix for per-verb wire latency: the verb name
    /// plus `_ns` is appended (`accu_serve_rpc_submit_ns`, ...).
    pub const RPC_NS_PREFIX: &str = "serve.rpc.";
}

/// Configuration for one daemon instance.
#[derive(Debug)]
pub struct DaemonConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub listen: String,
    /// Registry root directory.
    pub registry: PathBuf,
    /// Worker threads executing jobs. `0` is legal: accept-only mode
    /// (jobs queue but never run here — another daemon on the same
    /// registry adopts them), used by deterministic overload tests.
    pub max_jobs: usize,
    /// Queue capacity; a submission that would enqueue beyond this is
    /// answered with [`Response::Overloaded`].
    pub queue_cap: usize,
    /// Lease TTL: heartbeat silence after which other daemons may adopt
    /// this daemon's jobs.
    pub lease_ttl: Duration,
    /// Chaos schedule injected into checkpoint appends, registry
    /// writes, response frames, and runner worker faults.
    pub chaos: ChaosPlan,
    /// Abort the process after this many durable registry writes
    /// (chaos testing only).
    pub kill_after_registry: Option<u64>,
    /// Supervisor knobs for the in-job runner.
    pub supervisor: SupervisorConfig,
    /// Metrics sink.
    pub recorder: Recorder,
}

impl DaemonConfig {
    /// Defaults for a registry at `root`: ephemeral loopback port, two
    /// workers, queue of 16, 5-second lease TTL, no chaos.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            listen: "127.0.0.1:0".to_string(),
            registry: root.into(),
            max_jobs: 2,
            queue_cap: 16,
            lease_ttl: Duration::from_secs(5),
            chaos: ChaosPlan::none(),
            kill_after_registry: None,
            supervisor: SupervisorConfig::default(),
            recorder: Recorder::disabled(),
        }
    }
}

/// State shared by the accept loop, connection handlers, workers, and
/// the adoption sweeper.
struct Shared {
    registry: Registry,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    /// Jobs currently executing in this process.
    running: Mutex<HashSet<String>>,
    stop: AtomicBool,
    queue_cap: usize,
    lease_ttl: Duration,
    chaos: ChaosPlan,
    supervisor: SupervisorConfig,
    recorder: Recorder,
    /// Failpoint site for response frames, when chaos is attached.
    socket_site: Option<ChaosSite>,
    /// Failpoint site for checkpoint appends, when chaos is attached.
    /// One site for the daemon's lifetime — a retried job must draw the
    /// *next* faults from the stream, not replay the first ones.
    ckpt_site: Option<ChaosSite>,
    /// Correlated event journal at `<root>/journal.jsonl`, shared by
    /// every daemon incarnation serving this registry; its crash ring
    /// is dumped on crash paths.
    journal: Journal,
    /// Daemon start time (drives the `health` verb's uptime).
    started: Instant,
    /// Execution attempts per job id within this daemon (the `attempt`
    /// correlation field).
    attempts: Mutex<HashMap<String, u64>>,
    /// Once-per-job latches for the stale-lease-heartbeat alarm.
    alarmed: Mutex<HashSet<String>>,
}

impl Shared {
    /// Pushes `id` unless it is already queued or running here, and
    /// wakes one worker. Returns whether it was enqueued.
    fn enqueue(&self, id: &str) -> bool {
        let mut q = self.queue.lock().expect("queue lock");
        if q.iter().any(|j| j == id) || self.running.lock().expect("running lock").contains(id) {
            return false;
        }
        q.push_back(id.to_string());
        self.set_queue_depth(q.len());
        self.queue_cv.notify_one();
        true
    }

    /// Updates the queue-depth gauge.
    fn set_queue_depth(&self, depth: usize) {
        self.recorder
            .gauge(service_metrics::QUEUE_DEPTH)
            .set(depth as i64);
    }

    /// Sets the stop flag exactly once, journaling the reason; repeat
    /// calls are no-ops so `Drop` after an explicit stop stays silent.
    fn request_stop(&self, why: &str) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            self.journal
                .emit(Event::info("daemon.stop").msg(format!("stopping: {why}")));
        }
        self.queue_cv.notify_all();
    }
}

/// A running service daemon. Dropping it stops the listener, the
/// workers, and the sweeper (gracefully — but the whole design assumes
/// the graceful path is optional).
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("registry", &self.registry.root())
            .field("queue_cap", &self.queue_cap)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Opens the registry, binds the listener, runs the initial
    /// adoption sweep, and starts the worker and sweeper threads.
    ///
    /// # Errors
    ///
    /// A [`BindError`] naming the listen address (address in use,
    /// permission, parse), or one wrapping any registry I/O failure.
    pub fn start(config: DaemonConfig) -> Result<Daemon, BindError> {
        let ttl_ms = config.lease_ttl.as_millis() as u64;
        let mut registry = Registry::open(&config.registry, ttl_ms.max(1))
            .map_err(|e| BindError::new(config.listen.clone(), e))?;
        registry.attach_chaos(&config.chaos);
        registry.set_kill_after_writes(config.kill_after_registry);
        // Service-grade forensics: the journal appends durably to
        // <root>/journal.jsonl (one file per registry, shared across
        // incarnations) and keeps a crash ring; the registry's kill
        // channel and a process panic both dump the ring.
        let journal = Journal::append_to(registry.journal_path())
            .map_err(|e| BindError::new(config.listen.clone(), e))?;
        registry.attach_obs(journal.clone());
        install_panic_dump(&journal, config.registry.join("flight.jsonl"));
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| BindError::new(config.listen.clone(), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| BindError::new(config.listen.clone(), e))?;
        journal.emit(Event::info("daemon.start").msg(format!(
            "daemon up: pid {}, listening on {addr}, registry {}, \
             {} worker(s), queue cap {}, lease TTL {}ms",
            std::process::id(),
            config.registry.display(),
            config.max_jobs,
            config.queue_cap,
            ttl_ms
        )));
        let socket_site =
            (!config.chaos.is_trivial()).then(|| ChaosSite::new(config.chaos, "socket"));
        let ckpt_site =
            (!config.chaos.is_trivial()).then(|| ChaosSite::new(config.chaos, "checkpoint"));
        let shared = Arc::new(Shared {
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            running: Mutex::new(HashSet::new()),
            stop: AtomicBool::new(false),
            queue_cap: config.queue_cap,
            lease_ttl: config.lease_ttl,
            chaos: config.chaos,
            supervisor: config.supervisor,
            recorder: config.recorder,
            socket_site,
            ckpt_site,
            journal,
            started: Instant::now(),
            attempts: Mutex::new(HashMap::new()),
            alarmed: Mutex::new(HashSet::new()),
        });

        let mut threads = Vec::new();
        let accept_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("accu-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &accept_shared))
                .map_err(|e| BindError::new(config.listen.clone(), e))?,
        );
        for worker in 0..config.max_jobs {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("accu-serve-worker-{worker}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .map_err(|e| BindError::new(config.listen.clone(), e))?,
            );
        }
        let sweep_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("accu-serve-sweeper".to_string())
                .spawn(move || sweeper_loop(&sweep_shared))
                .map_err(|e| BindError::new(config.listen, e))?,
        );
        Ok(Daemon {
            addr,
            shared,
            threads,
        })
    }

    /// The actually-bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown request (or [`Daemon::stop`]) has been seen.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Requests a stop (also triggered by a `shutdown` request).
    pub fn stop(&self) {
        self.shared.request_stop("stop requested");
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the daemon is asked to stop (protocol `shutdown` or
    /// [`Daemon::stop`] from another thread).
    pub fn wait(&self) {
        while !self.stopping() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Accepts connections until stopped, handling each on its own thread.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let conn_shared = Arc::clone(shared);
        // Handlers are detached: they exit when the client disconnects,
        // the idle timeout fires, or the stop flag is set.
        let _ = std::thread::Builder::new()
            .name("accu-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &conn_shared));
    }
}

/// Sends one response frame, through the socket failpoint when chaos is
/// attached (a drawn fault tears the frame client-side).
fn send(stream: &TcpStream, shared: &Shared, resp: &Response) -> std::io::Result<()> {
    let payload = resp.to_json();
    match &shared.socket_site {
        Some(site) => {
            let mut writer = ChaosFile::new(stream, site.clone());
            write_frame(&mut writer, &payload)
        }
        None => write_frame(&mut { stream }, &payload),
    }
}

/// Serves one connection: request frames in, response frames out, until
/// the client disconnects or the daemon stops.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(CONN_IDLE_TIMEOUT));
    let mut reader = match stream.try_clone() {
        Ok(reader) => reader,
        Err(_) => return,
    };
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(text) = read_frame(&mut reader) else {
            return;
        };
        let request = match Request::from_json(&text) {
            Ok(request) => request,
            Err(message) => {
                let _ = send(&stream, shared, &Response::Err { message });
                continue;
            }
        };
        let done = matches!(request, Request::Shutdown);
        if let Request::Watch { job, from } = &request {
            if serve_watch(&stream, shared, job, *from).is_err() {
                return;
            }
            continue;
        }
        // Per-verb wire latency, one histogram per verb so the scrape
        // exposes `accu_serve_rpc_<verb>_ns` families.
        let verb_started = Instant::now();
        let response = respond(shared, &request);
        shared
            .recorder
            .histogram(format!(
                "{}{}_ns",
                service_metrics::RPC_NS_PREFIX,
                verb_name(&request)
            ))
            .record(verb_started.elapsed().as_nanos() as u64);
        if send(&stream, shared, &response).is_err() {
            return;
        }
        if done {
            shared.request_stop("shutdown verb received");
            return;
        }
    }
}

/// The metric label for a request verb.
fn verb_name(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Submit { .. } => "submit",
        Request::Status { .. } => "status",
        Request::Result { .. } => "result",
        Request::Watch { .. } => "watch",
        Request::Cancel { .. } => "cancel",
        Request::Health => "health",
        Request::ServiceStatus { .. } => "service_status",
        Request::Shutdown => "shutdown",
    }
}

/// Computes the response for every non-watch request.
fn respond(shared: &Shared, request: &Request) -> Response {
    match request {
        Request::Ping | Request::Shutdown => Response::Pong {
            pid: std::process::id(),
        },
        Request::Health => Response::Health(health_snapshot(shared)),
        Request::ServiceStatus { tail } => Response::Summary(service_summary(shared, *tail)),
        Request::Submit { job, spec } => submit(shared, job, spec),
        Request::Status { job } => match shared.registry.read_status(job) {
            Ok(status) => Response::Status {
                job: job.clone(),
                status,
            },
            Err(e) => Response::Err {
                message: e.to_string(),
            },
        },
        Request::Result { job } => match shared.registry.read_status(job) {
            Ok(status) if status.state == JobState::Done => {
                match shared.registry.read_result(job) {
                    Ok(csv) => Response::ResultCsv {
                        job: job.clone(),
                        csv,
                    },
                    Err(e) => Response::Err {
                        message: e.to_string(),
                    },
                }
            }
            Ok(status) => Response::Err {
                message: format!("job {job:?} is {}, not done", status.state),
            },
            Err(e) => Response::Err {
                message: e.to_string(),
            },
        },
        Request::Cancel { job } => cancel(shared, job),
        Request::Watch { .. } => unreachable!("watch is streamed by the caller"),
    }
}

/// One pass over the registry for the `health` verb's vitals.
fn health_snapshot(shared: &Shared) -> DaemonHealth {
    let queued = shared.queue.lock().expect("queue lock").len();
    let running = shared.running.lock().expect("running lock").len();
    let mut health = DaemonHealth {
        pid: std::process::id(),
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        queued,
        running,
        ..DaemonHealth::default()
    };
    if let Ok(ids) = shared.registry.jobs() {
        for id in ids {
            health.jobs += 1;
            match shared.registry.read_status(&id).map(|s| s.state) {
                Ok(JobState::Done) => health.done += 1,
                Ok(JobState::Failed) => health.failed += 1,
                _ => {}
            }
        }
    }
    health
}

/// The daemon-wide status report: vitals, every registry job's phase,
/// and the last `tail` journal lines.
fn service_summary(shared: &Shared, tail: u64) -> ServiceSummary {
    let mut jobs = Vec::new();
    if let Ok(mut ids) = shared.registry.jobs() {
        ids.sort();
        for id in ids {
            let Ok(status) = shared.registry.read_status(&id) else {
                continue;
            };
            jobs.push(JobRow {
                job: id,
                state: status.state,
                epoch: status.epoch,
                detail: status.detail,
            });
        }
    }
    let journal_tail = if tail == 0 {
        Vec::new()
    } else {
        let text = std::fs::read_to_string(shared.registry.journal_path()).unwrap_or_default();
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let skip = lines.len().saturating_sub(tail as usize);
        lines[skip..].iter().map(|l| (*l).to_string()).collect()
    };
    ServiceSummary {
        health: health_snapshot(shared),
        jobs,
        journal_tail,
    }
}

/// Idempotent submission with admission control. The capacity check
/// happens *before* any registry mutation, so an `Overloaded` answer
/// really means nothing was accepted (the sweeper will not resurrect a
/// half-admitted job).
fn submit(shared: &Shared, job: &str, spec: &crate::service::spec::JobSpec) -> Response {
    let queue = shared.queue.lock().expect("queue lock");
    let will_enqueue = match shared.registry.read_status(job) {
        Ok(status) => matches!(status.state, JobState::Failed | JobState::Cancelled),
        Err(RegistryError::Rejected(_)) => true, // new job
        Err(RegistryError::Io(e)) => {
            return Response::Err {
                message: format!("registry read failed: {e}"),
            }
        }
    };
    if will_enqueue && queue.len() >= shared.queue_cap {
        shared
            .recorder
            .counter(service_metrics::ADMISSION_REJECTIONS)
            .incr();
        shared
            .journal
            .emit(Event::warn("job.reject").corr(Corr::job(job)).msg(format!(
                "admission control rejected submission: queue {} at cap {}",
                queue.len(),
                shared.queue_cap
            )));
        return Response::Overloaded {
            running: shared.running.lock().expect("running lock").len(),
            queued: queue.len(),
            cap: shared.queue_cap,
        };
    }
    drop(queue);
    match shared.registry.submit(job, spec) {
        Ok(outcome) => {
            shared.recorder.counter(service_metrics::SUBMISSIONS).incr();
            let outcome_name = match outcome {
                SubmitOutcome::Created => "created",
                SubmitOutcome::Cached => "cached",
                SubmitOutcome::Attached => "attached",
                SubmitOutcome::Requeued => "requeued",
            };
            shared.journal.emit(
                Event::info("job.submit")
                    .corr(Corr::job(job))
                    .msg(format!("submission accepted ({outcome_name})")),
            );
            if matches!(outcome, SubmitOutcome::Created | SubmitOutcome::Requeued) {
                shared.enqueue(job);
            }
            let state = shared
                .registry
                .read_status(job)
                .map(|s| s.state)
                .unwrap_or(JobState::Queued);
            Response::Accepted {
                job: job.to_string(),
                state,
                cached: outcome == SubmitOutcome::Cached,
                attached: outcome == SubmitOutcome::Attached,
            }
        }
        Err(e) => Response::Err {
            message: e.to_string(),
        },
    }
}

/// Cancels a queued job; running and terminal jobs are not touched
/// (cancel of an already-cancelled job idempotently reports it).
fn cancel(shared: &Shared, job: &str) -> Response {
    let status = match shared.registry.read_status(job) {
        Ok(status) => status,
        Err(e) => {
            return Response::Err {
                message: e.to_string(),
            }
        }
    };
    match status.state {
        JobState::Queued => {
            {
                let mut queue = shared.queue.lock().expect("queue lock");
                queue.retain(|j| j != job);
                shared.set_queue_depth(queue.len());
            }
            let cancelled = JobStatus {
                state: JobState::Cancelled,
                detail: "cancelled while queued".to_string(),
                ..status
            };
            match shared.registry.write_status(job, &cancelled) {
                Ok(()) => {
                    shared.journal.emit(
                        Event::info("job.cancel")
                            .corr(Corr::job(job))
                            .msg("cancelled while queued"),
                    );
                    Response::Status {
                        job: job.to_string(),
                        status: cancelled,
                    }
                }
                Err(e) => Response::Err {
                    message: format!("cancel failed: {e}"),
                },
            }
        }
        JobState::Running => Response::Err {
            message: format!("job {job:?} is running; only queued jobs can be cancelled"),
        },
        _ => Response::Status {
            job: job.to_string(),
            status,
        },
    }
}

/// Streams progress lines for `job` from sequence `from` until the job
/// is terminal, then sends [`Response::End`]. Lines are the raw
/// `progress.jsonl` entries; the sequence number is the 0-based line
/// index, which is what a reconnecting client passes back as `from`.
fn serve_watch(
    stream: &TcpStream,
    shared: &Arc<Shared>,
    job: &str,
    from: u64,
) -> std::io::Result<()> {
    if let Err(e) = shared.registry.read_status(job) {
        return send(
            stream,
            shared,
            &Response::Err {
                message: e.to_string(),
            },
        );
    }
    let mut next = from;
    loop {
        let text = std::fs::read_to_string(shared.registry.progress_path(job)).unwrap_or_default();
        // The final line of a live stream may still be mid-append; only
        // newline-terminated lines are complete, so count those.
        let complete = text.ends_with('\n');
        let lines: Vec<&str> = text.lines().collect();
        let available = if complete {
            lines.len()
        } else {
            lines.len().saturating_sub(1)
        };
        while (next as usize) < available {
            send(
                stream,
                shared,
                &Response::Event {
                    seq: next,
                    line: lines[next as usize].to_string(),
                },
            )?;
            next += 1;
        }
        let state = shared
            .registry
            .read_status(job)
            .map(|s| s.state)
            .unwrap_or(JobState::Failed);
        if state.is_terminal() && (next as usize) >= available {
            return send(stream, shared, &Response::End { state });
        }
        if shared.stop.load(Ordering::Relaxed) {
            // Stopping mid-stream: just drop; the client reconnects to
            // whoever adopts the job.
            return Ok(());
        }
        std::thread::sleep(POLL);
    }
}

/// Worker body: dequeue → win the lease → execute → publish (fenced).
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    shared.set_queue_depth(queue.len());
                    break job;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = q;
            }
        };
        run_one_job(shared, &job);
    }
}

/// Executes one dequeued job id end to end. Every early return is a
/// case where someone else owns (or finished) the job — never an error
/// the queue needs to care about.
fn run_one_job(shared: &Arc<Shared>, job: &str) {
    use crate::service::lease::now_ms;

    let Ok(status) = shared.registry.read_status(job) else {
        return;
    };
    if status.state.is_terminal() {
        return;
    }
    let attempt = {
        let mut attempts = shared.attempts.lock().expect("attempts lock");
        let n = attempts.entry(job.to_string()).or_insert(0);
        *n += 1;
        *n
    };
    // Win the lease: fresh acquire on a free job, fenced takeover on a
    // stale one, retreat when someone else holds it live.
    let lease_file = shared.registry.lease(job);
    let ttl_ms = shared.lease_ttl.as_millis() as u64;
    let lease = match lease_file.read() {
        Ok(None) => {
            let acquired = lease_file.acquire(status.epoch + 1).unwrap_or(None);
            if let Some(lease) = &acquired {
                shared.journal.emit(
                    Event::info("lease.acquire")
                        .corr(Corr::job(job).epoch(lease.epoch).attempt(attempt))
                        .msg(format!("lease acquired at epoch {}", lease.epoch)),
                );
            }
            acquired
        }
        Ok(Some(current)) if current.is_stale(ttl_ms, now_ms()) => {
            let adopted = lease_file.takeover(&current).unwrap_or(None);
            if let Some(lease) = &adopted {
                shared.recorder.counter(service_metrics::TAKEOVERS).incr();
                shared.journal.emit(
                    Event::warn("lease.takeover")
                        .corr(Corr::job(job).epoch(lease.epoch).attempt(attempt))
                        .msg(format!(
                            "took over stale lease: previous holder pid {} epoch {} \
                             (heartbeat age {}ms), fenced to epoch {}",
                            current.pid,
                            current.epoch,
                            now_ms().saturating_sub(current.beat_ms),
                            lease.epoch
                        )),
                );
            }
            adopted
        }
        _ => None,
    };
    let Some(lease) = lease else { return };
    let corr = Corr::job(job).epoch(lease.epoch).attempt(attempt);

    shared
        .running
        .lock()
        .expect("running lock")
        .insert(job.to_string());
    shared.recorder.gauge(service_metrics::INFLIGHT).add(1);

    let outcome = execute(shared, job, &lease, &corr);

    let _ = lease_file.release(&lease);
    shared.journal.emit(
        Event::debug("lease.release")
            .corr(corr.clone())
            .msg(format!("lease released at epoch {}", lease.epoch)),
    );
    shared.running.lock().expect("running lock").remove(job);
    shared.recorder.gauge(service_metrics::INFLIGHT).sub(1);
    match outcome {
        ExecOutcome::Published => shared.recorder.counter(service_metrics::JOBS_DONE).incr(),
        ExecOutcome::Fenced => {} // the successor publishes
        ExecOutcome::Retry => {
            // Crash-only retry: the job is still non-terminal on disk
            // and now leaseless, exactly like a crashed daemon's
            // orphan. Requeue immediately; the sweep is the backstop.
            shared.enqueue(job);
        }
        ExecOutcome::Failed => shared.recorder.counter(service_metrics::JOBS_FAILED).incr(),
    }
}

/// How one execution attempt ended.
enum ExecOutcome {
    /// The result was published; the job is done.
    Published,
    /// Fenced off mid-run; a successor owns the job now and this
    /// worker's output was discarded.
    Fenced,
    /// A transient failure (checkpoint/progress I/O, including injected
    /// chaos). The job stays non-terminal and leaseless, so adoption
    /// retries it — resuming whatever the checkpoint already holds.
    Retry,
    /// A permanent failure, published as `Failed`.
    Failed,
}

/// Why a job body could not produce a result.
enum JobError {
    /// Worth retrying from the durable checkpoint (I/O trouble).
    Transient(String),
    /// Retrying cannot help (bad spec, exhausted supervision).
    Fatal(String),
}

/// Runs the job under `lease` and reports how the attempt ended.
fn execute(
    shared: &Arc<Shared>,
    job: &str,
    lease: &crate::service::lease::Lease,
    corr: &Corr,
) -> ExecOutcome {
    let lease_file = shared.registry.lease(job);
    let running = JobStatus {
        state: JobState::Running,
        detail: String::new(),
        recovered_lines: 0,
        resumed_networks: 0,
        epoch: lease.epoch,
    };
    if shared.registry.write_status(job, &running).is_err() {
        return ExecOutcome::Retry;
    }
    shared.journal.emit(
        Event::info("job.run")
            .corr(corr.clone())
            .msg(format!("attempt started under epoch {}", lease.epoch)),
    );

    // Heartbeat: renew at TTL/4; a failed renewal (epoch moved) means
    // this worker has been fenced off and must discard its work.
    let hb_done = Arc::new(AtomicBool::new(false));
    let hb_fenced = Arc::new(AtomicBool::new(false));
    let hb = {
        let done = Arc::clone(&hb_done);
        let fenced = Arc::clone(&hb_fenced);
        let lease_file = lease_file.clone();
        let lease = *lease;
        let interval = (shared.lease_ttl / 4).max(Duration::from_millis(10));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if done.load(Ordering::Relaxed) {
                    break;
                }
                match lease_file.renew(&lease) {
                    Ok(true) => {}
                    Ok(false) => {
                        fenced.store(true, Ordering::Relaxed);
                        break;
                    }
                    // Transient I/O on a renew is survivable until the
                    // TTL runs out; keep trying.
                    Err(_) => {}
                }
            }
        })
    };

    let result = run_job_body(shared, job, corr);

    hb_done.store(true, Ordering::Relaxed);
    let _ = hb.join();

    // Fencing checks: the heartbeat's verdict plus one final epoch read
    // immediately before publication.
    let still_owner = !hb_fenced.load(Ordering::Relaxed)
        && matches!(lease_file.read(), Ok(Some(current)) if current.epoch == lease.epoch);
    if !still_owner {
        shared.recorder.counter(service_metrics::FENCES).incr();
        shared
            .journal
            .emit(Event::warn("lease.fenced").corr(corr.clone()).msg(format!(
                "fenced off at epoch {}: a successor holds the lease, discarding work",
                lease.epoch
            )));
        return ExecOutcome::Fenced;
    }

    match result {
        Ok((csv, mut status)) => {
            status.epoch = lease.epoch;
            if shared.registry.write_result(job, &csv).is_err()
                || shared.registry.write_status(job, &status).is_err()
            {
                // The result did not land durably: same as crashing
                // before publication — the next owner republishes.
                return ExecOutcome::Retry;
            }
            shared.journal.emit(
                Event::info("job.publish")
                    .corr(corr.clone())
                    .msg(format!("result published at epoch {}", lease.epoch)),
            );
            ExecOutcome::Published
        }
        Err(JobError::Transient(message)) => {
            eprintln!("accu-serve: job {job} hit transient trouble, will retry: {message}");
            shared.journal.emit(
                Event::warn("job.retry")
                    .corr(corr.clone())
                    .msg(format!("transient trouble, will retry: {message}")),
            );
            ExecOutcome::Retry
        }
        Err(JobError::Fatal(message)) => {
            shared.journal.emit_and_dump(
                Event::error("job.fail")
                    .corr(corr.clone())
                    .msg(format!("fatal failure: {message}")),
                &shared.registry.flight_path(job),
            );
            let _ = shared.registry.write_status(
                job,
                &JobStatus {
                    state: JobState::Failed,
                    detail: message,
                    recovered_lines: 0,
                    resumed_networks: 0,
                    epoch: lease.epoch,
                },
            );
            ExecOutcome::Failed
        }
    }
}

/// The computation itself: resolve the spec, resume the checkpoint, run
/// the hardened runner, render the CSV. Returns the result CSV and the
/// `Done` status to publish (the caller stamps the epoch and decides
/// whether publication is still allowed).
fn run_job_body(
    shared: &Arc<Shared>,
    job: &str,
    corr: &Corr,
) -> Result<(String, JobStatus), JobError> {
    let spec = shared.registry.read_spec(job).map_err(|e| match e {
        RegistryError::Io(e) => JobError::Transient(format!("spec read failed: {e}")),
        RegistryError::Rejected(m) => JobError::Fatal(m),
    })?;
    let figure = spec.figure().map_err(JobError::Fatal)?;
    let policy = spec.policy_kind().map_err(JobError::Fatal)?;
    let mut checkpoint = Checkpoint::open(shared.registry.checkpoint_path(job), true)
        .map_err(|e| JobError::Transient(format!("checkpoint open failed: {e}")))?;
    match &shared.ckpt_site {
        Some(site) => checkpoint.attach_chaos_site(site),
        None => checkpoint.attach_chaos(&shared.chaos),
    }
    checkpoint.attach_obs(shared.journal.clone(), corr.clone());
    // Progress restarts from sequence 0 on every (re)execution: the
    // stream documents *this* attempt, and watch clients treat a seq
    // reset after reconnect as a new attempt.
    let progress = JsonlSink::create(shared.registry.progress_path(job))
        .map_err(|e| JobError::Transient(format!("progress sink failed: {e}")))?;
    let report = run_policy_with(
        &figure,
        policy,
        RunOptions {
            recorder: shared.recorder.clone(),
            events: RunEvents::new(
                shared.journal.clone(),
                Observer::new(Some(progress), false),
                corr.clone(),
            ),
            checkpoint: Some(&mut checkpoint),
            max_workers: Some(2),
            chaos: shared.chaos,
            supervisor: shared.supervisor,
            ..RunOptions::default()
        },
    )
    .map_err(|e| match e {
        // Checkpoint I/O trouble (including injected chaos) is the
        // crash-shaped failure: whatever prefix landed durably, a
        // re-adoption resumes it. Everything else is a real failure.
        RunnerError::Checkpoint(e) => JobError::Transient(format!("checkpoint I/O failed: {e}")),
        other => JobError::Fatal(other.to_string()),
    })?;

    let mut notes = Vec::new();
    if report.checkpoint_skipped_lines > 0 {
        notes.push(format!(
            "recovered from torn checkpoint ({} line{} dropped)",
            report.checkpoint_skipped_lines,
            if report.checkpoint_skipped_lines == 1 {
                ""
            } else {
                "s"
            }
        ));
    }
    if report.resumed_networks > 0 {
        notes.push(format!(
            "resumed {} network(s) from checkpoint",
            report.resumed_networks
        ));
    }
    let csv = crate::service::spec::result_csv(&figure, policy, &report.accumulator);
    Ok((
        csv,
        JobStatus {
            state: JobState::Done,
            detail: notes.join("; "),
            recovered_lines: report.checkpoint_skipped_lines,
            resumed_networks: report.resumed_networks,
            epoch: 0, // stamped by the caller
        },
    ))
}

/// Adoption sweeper: runs a sweep immediately at startup (crash-only
/// recovery is just "start"), then re-sweeps at half the lease TTL so
/// stale leases are adopted promptly after they expire.
fn sweeper_loop(shared: &Arc<Shared>) {
    let interval = (shared.lease_ttl / 2).max(Duration::from_millis(50));
    loop {
        if let Ok(orphans) = shared.registry.orphans() {
            for id in orphans {
                if shared.enqueue(&id) {
                    shared.recorder.counter(service_metrics::ADOPTIONS).incr();
                    shared.journal.emit(
                        Event::info("job.adopt")
                            .corr(Corr::job(&id))
                            .msg("adoption sweep requeued leaseless non-terminal job"),
                    );
                }
            }
        }
        watch_lease_heartbeats(shared);
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(interval);
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Stale-lease watchdog: a job whose on-disk status says `Running` but
/// whose lease heartbeat is older than the TTL has lost its worker (or
/// the worker is wedged). Publishes the worst heartbeat age as a gauge
/// and raises a once-per-job `obs.alarm` journal event with a crash
/// dump so the wedge is diagnosable after the fact.
fn watch_lease_heartbeats(shared: &Arc<Shared>) {
    use crate::service::lease::now_ms;

    let ttl_ms = shared.lease_ttl.as_millis() as u64;
    let Ok(jobs) = shared.registry.jobs() else {
        return;
    };
    let mut worst_age: u64 = 0;
    for job in jobs {
        let Ok(status) = shared.registry.read_status(&job) else {
            continue;
        };
        if status.state != JobState::Running {
            continue;
        }
        let Ok(Some(lease)) = shared.registry.lease(&job).read() else {
            continue;
        };
        let age = now_ms().saturating_sub(lease.beat_ms);
        worst_age = worst_age.max(age);
        if age > ttl_ms {
            let first = shared
                .alarmed
                .lock()
                .expect("alarmed lock")
                .insert(job.clone());
            if first {
                shared.journal.emit_and_dump(
                    Event::error("obs.alarm")
                        .corr(Corr::job(&job).epoch(lease.epoch))
                        .arg("alarm", "lease_heartbeat")
                        .msg(format!(
                            "stale lease heartbeat: job still running but last beat {age}ms ago \
                             (TTL {ttl_ms}ms) at epoch {}",
                            lease.epoch
                        ))
                        .arg("value", age)
                        .arg("threshold", ttl_ms),
                    &shared.registry.flight_path(&job),
                );
                eprintln!(
                    "accu-serve: WATCHDOG job {job} lease heartbeat is {age}ms old (TTL {ttl_ms}ms)"
                );
            }
        }
    }
    shared
        .recorder
        .gauge(service_metrics::LEASE_HEARTBEAT_AGE_MS)
        .set(worst_age as i64);
}
