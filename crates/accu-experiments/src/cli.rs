//! Minimal command-line parsing shared by the experiment binaries.
//!
//! Every figure/table binary parses the flags below. The runner flags
//! (`--faults`, `--chaos`, `--deadline`, `--validate`, `--checkpoint`,
//! `--resume`, `--trace`, `--progress`, `--watchdog`, `--workers`)
//! reach every cell of the runner-driven binaries — fig2–fig6,
//! `extra_baselines` and `fault_ablation` — through
//! [`Telemetry::run`](crate::Telemetry::run). `acceptance_models`,
//! `hesitant`, `noise_ablation` and `selection_ablation` run their own
//! episode loops and use only the recorder (`--telemetry`,
//! `--metrics-addr`); the remaining binaries run no episodes at all.
//!
//! * `--paper` — run at the paper's full scale (Table I network sizes,
//!   100 sample networks × 30 runs, k = 500); the default is a
//!   laptop-scale configuration that preserves the figures' shapes;
//! * `--seed <u64>` — master RNG seed (default 42);
//! * `--samples <n>` / `--runs <n>` / `--budget <k>` — override the
//!   number of sampled networks, runs per network, and request budget;
//! * `--scale <f>` — override the graph down-scaling factor;
//! * `--faults <f>` — run under the fault model at intensity `f` in
//!   `[0, 1]` (0 = the paper's fault-free setting);
//! * `--chaos <spec>` — inject seeded *infrastructure* chaos on top of
//!   the protocol-level `--faults`: either a bare intensity in
//!   `[0, 1]` or comma-separated `key=value` pairs (`disk`, `eintr`,
//!   `torn`, `panic`, `stall` probabilities; `stall-ms`, `kill-after`,
//!   `seed` integers). The schedule is a pure function of the spec, so
//!   every policy in a run faces identical chaos;
//! * `--deadline <secs>` — soft deadline: once it expires, remaining
//!   networks are shed in a deterministic, worker-count-independent
//!   order and the partial aggregate is reported as degraded (the
//!   binary still exits 0; any runner error, such as a worker dying
//!   with the restart budget spent, exits 1 instead);
//! * `--validate <mode>` — how sampled instances are checked against
//!   the paper preconditions: `strict` rejects violating networks,
//!   `lenient` (default) repairs them and flags the λ-guarantee void,
//!   `off` skips validation entirely (pre-validation behavior);
//! * `--checkpoint <path>` / `--resume` — append per-network progress
//!   to a JSONL checkpoint and, with `--resume`, skip work the file
//!   already covers (`--resume` without `--checkpoint` is rejected);
//! * `--trace <path>[:sample=N]` — export a Perfetto-compatible trace
//!   (and a JSONL causal log next to it), recording every `N`-th
//!   episode in full detail (default every episode). An empty path
//!   (`--trace :sample=10`) uses the default location under
//!   `target/experiments/trace/`;
//! * `--metrics-addr <addr>` — serve live Prometheus text-format
//!   scrapes of the run's recorder on a local HTTP listener (e.g.
//!   `127.0.0.1:9184`, port 0 for ephemeral);
//! * `--progress[=path]` — stream run progress: a live console status
//!   line on stderr, plus (with `=path`) a deterministic JSONL event
//!   stream whose bytes do not depend on worker count;
//! * `--watchdog[=spec]` — arm run watchdogs. `spec` is a
//!   comma-separated list of `stall=SECS`, `floor=EPS`, `faults=RATE`,
//!   `warmup=SECS`, and `strict` (exit nonzero if any alarm fired);
//!   an absent spec uses the defaults. The throughput-floor rule is off
//!   unless `floor` is given;
//! * `--workers <n>` — cap the number of runner worker threads
//!   (default: available parallelism).

use std::fmt;

use accu_core::{ChaosConfig, ValidationMode};
use accu_telemetry::obs::WatchdogConfig;

/// Parsed `--trace` argument: where to write the trace and how densely
/// to sample episodes.
///
/// Syntax: `<path>[:sample=N]`. The path may be empty (`:sample=10`),
/// meaning "default location"; `N` must be ≥ 1 and defaults to 1
/// (trace every episode).
///
/// # Examples
///
/// ```
/// use accu_experiments::TraceSpec;
/// let spec: TraceSpec = "run.json:sample=25".parse().unwrap();
/// assert_eq!(spec.path.as_deref(), Some("run.json"));
/// assert_eq!(spec.sample, 25);
/// let spec: TraceSpec = "run.json".parse().unwrap();
/// assert_eq!(spec.sample, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Output path for the Chrome-format trace (`None` = default
    /// location under `target/experiments/trace/`).
    pub path: Option<String>,
    /// Episode sampling period: every `sample`-th episode is traced in
    /// full detail (1 = all).
    pub sample: u64,
}

impl std::str::FromStr for TraceSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (path, sample) = match s.rfind(":sample=") {
            Some(at) => {
                let n: u64 = s[at + ":sample=".len()..]
                    .parse()
                    .map_err(|_| "sample expects a positive integer".to_string())?;
                if n == 0 {
                    return Err("sample must be at least 1".to_string());
                }
                (&s[..at], n)
            }
            None => (s, 1),
        };
        Ok(TraceSpec {
            path: (!path.is_empty()).then(|| path.to_string()),
            sample,
        })
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Run at full paper scale.
    pub paper: bool,
    /// Master seed.
    pub seed: u64,
    /// Override: sampled networks per dataset.
    pub samples: Option<usize>,
    /// Override: attack runs per sampled network.
    pub runs: Option<usize>,
    /// Override: request budget `k`.
    pub budget: Option<usize>,
    /// Override: graph scaling factor.
    pub scale: Option<f64>,
    /// Collect and report runtime telemetry (per-stage timing, policy
    /// counters) and write a JSONL snapshot under
    /// `target/experiments/telemetry/`.
    pub telemetry: bool,
    /// Fault-model intensity in `[0, 1]` (`None` = fault-free).
    pub faults: Option<f64>,
    /// Infrastructure-chaos schedule (`None` = chaos off), validated
    /// at the CLI boundary by [`ChaosConfig::parse`].
    pub chaos: Option<ChaosConfig>,
    /// Soft deadline in seconds (`None` = none): past it, remaining
    /// networks are shed and the run degrades gracefully.
    pub deadline: Option<f64>,
    /// Paper-precondition validation mode (default: lenient).
    pub validate: ValidationMode,
    /// Checkpoint file to append per-network progress to.
    pub checkpoint: Option<String>,
    /// Resume from the checkpoint instead of starting fresh.
    pub resume: bool,
    /// Causal-trace export (`None` = tracing off).
    pub trace: Option<TraceSpec>,
    /// Address for the live Prometheus metrics listener (`None` =
    /// no listener).
    pub metrics_addr: Option<String>,
    /// Streaming progress: `None` = off, `Some(None)` = console line
    /// only, `Some(Some(path))` = console line + JSONL stream at
    /// `path`.
    pub progress: Option<Option<String>>,
    /// Watchdog spec (validated at parse time; `None` = watchdogs
    /// off, `Some("")` = defaults).
    pub watchdog: Option<String>,
    /// Cap on runner worker threads (`None` = available parallelism).
    pub workers: Option<usize>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            paper: false,
            seed: 42,
            samples: None,
            runs: None,
            budget: None,
            scale: None,
            telemetry: false,
            faults: None,
            chaos: None,
            deadline: None,
            validate: ValidationMode::default(),
            checkpoint: None,
            resume: false,
            trace: None,
            metrics_addr: None,
            progress: None,
            watchdog: None,
            workers: None,
        }
    }
}

/// Error produced by [`Cli::parse_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// Parses from `std::env::args`, exiting with a usage message on
    /// error (the behavior every experiment binary wants).
    pub fn parse() -> Cli {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [--paper] [--seed N] [--samples N] [--runs N] [--budget K] \
                     [--scale F] [--telemetry] [--faults F] [--chaos SPEC] [--deadline SECS] \
                     [--validate strict|lenient|off] \
                     [--checkpoint PATH] [--resume] [--trace PATH[:sample=N]] \
                     [--metrics-addr ADDR] [--progress[=PATH]] [--watchdog[=SPEC]] [--workers N]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses from an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] on unknown flags or malformed values.
    pub fn parse_from<I, S>(args: I) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cli = Cli::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let mut value = |name: &str| -> Result<String, CliError> {
                iter.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| CliError(format!("{name} needs a value")))
            };
            match arg {
                "--paper" => cli.paper = true,
                "--telemetry" => cli.telemetry = true,
                "--seed" => {
                    cli.seed = value("--seed")?
                        .parse()
                        .map_err(|_| CliError("--seed expects a u64".into()))?;
                }
                "--samples" => {
                    cli.samples = Some(
                        value("--samples")?
                            .parse()
                            .map_err(|_| CliError("--samples expects a count".into()))?,
                    );
                }
                "--runs" => {
                    cli.runs = Some(
                        value("--runs")?
                            .parse()
                            .map_err(|_| CliError("--runs expects a count".into()))?,
                    );
                }
                "--budget" => {
                    cli.budget = Some(
                        value("--budget")?
                            .parse()
                            .map_err(|_| CliError("--budget expects a count".into()))?,
                    );
                }
                "--scale" => {
                    cli.scale = Some(
                        value("--scale")?
                            .parse()
                            .map_err(|_| CliError("--scale expects a float".into()))?,
                    );
                }
                "--faults" => {
                    let f: f64 = value("--faults")?
                        .parse()
                        .map_err(|_| CliError("--faults expects a float".into()))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(CliError("--faults expects an intensity in [0, 1]".into()));
                    }
                    cli.faults = Some(f);
                }
                "--chaos" => {
                    cli.chaos = Some(
                        ChaosConfig::parse(&value("--chaos")?)
                            .map_err(|e| CliError(format!("--chaos: {e}")))?,
                    );
                }
                "--deadline" => {
                    let secs: f64 = value("--deadline")?
                        .parse()
                        .map_err(|_| CliError("--deadline expects seconds".into()))?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(CliError(
                            "--deadline expects a nonnegative number of seconds".into(),
                        ));
                    }
                    cli.deadline = Some(secs);
                }
                "--validate" => {
                    cli.validate = value("--validate")?
                        .parse()
                        .map_err(|e: String| CliError(format!("--validate: {e}")))?;
                }
                "--checkpoint" => cli.checkpoint = Some(value("--checkpoint")?),
                "--resume" => cli.resume = true,
                "--trace" => {
                    cli.trace = Some(
                        value("--trace")?
                            .parse()
                            .map_err(|e: String| CliError(format!("--trace: {e}")))?,
                    );
                }
                "--metrics-addr" => cli.metrics_addr = Some(value("--metrics-addr")?),
                "--progress" => cli.progress = Some(None),
                "--watchdog" => {
                    cli.watchdog = Some(String::new());
                }
                "--workers" => {
                    let n: usize = value("--workers")?
                        .parse()
                        .map_err(|_| CliError("--workers expects a count".into()))?;
                    if n == 0 {
                        return Err(CliError("--workers must be at least 1".into()));
                    }
                    cli.workers = Some(n);
                }
                other => {
                    // Flags whose value is optional use `=` syntax so a
                    // bare `--progress` stays unambiguous.
                    if let Some(path) = other.strip_prefix("--progress=") {
                        if path.is_empty() {
                            return Err(CliError("--progress= expects a path".into()));
                        }
                        cli.progress = Some(Some(path.to_string()));
                    } else if let Some(spec) = other.strip_prefix("--watchdog=") {
                        WatchdogConfig::parse(spec)
                            .map_err(|e| CliError(format!("--watchdog: {e}")))?;
                        cli.watchdog = Some(spec.to_string());
                    } else {
                        return Err(CliError(format!("unknown flag {other:?}")));
                    }
                }
            }
        }
        if cli.resume && cli.checkpoint.is_none() {
            return Err(CliError("--resume needs --checkpoint PATH".into()));
        }
        Ok(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let cli = Cli::parse_from(Vec::<String>::new()).unwrap();
        assert_eq!(cli, Cli::default());
        assert!(!cli.paper);
        assert_eq!(cli.seed, 42);
    }

    #[test]
    fn parses_all_flags() {
        let cli = Cli::parse_from([
            "--paper",
            "--seed",
            "7",
            "--samples",
            "3",
            "--runs",
            "9",
            "--budget",
            "100",
            "--scale",
            "0.5",
            "--telemetry",
        ])
        .unwrap();
        assert!(cli.paper);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.samples, Some(3));
        assert_eq!(cli.runs, Some(9));
        assert_eq!(cli.budget, Some(100));
        assert_eq!(cli.scale, Some(0.5));
        assert!(cli.telemetry);
    }

    #[test]
    fn telemetry_defaults_off() {
        let cli = Cli::parse_from(["--seed", "3"]).unwrap();
        assert!(!cli.telemetry);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(Cli::parse_from(["--bogus"]).is_err());
        assert!(Cli::parse_from(["--seed"]).is_err());
        assert!(Cli::parse_from(["--seed", "abc"]).is_err());
        assert!(Cli::parse_from(["--scale", "x"]).is_err());
        assert!(Cli::parse_from(["--faults"]).is_err());
        assert!(Cli::parse_from(["--faults", "nope"]).is_err());
        assert!(Cli::parse_from(["--checkpoint"]).is_err());
    }

    #[test]
    fn resume_needs_a_checkpoint() {
        let err = Cli::parse_from(["--resume"]).unwrap_err();
        assert!(err.to_string().contains("--checkpoint"), "{err}");
        assert!(Cli::parse_from(["--resume", "--checkpoint", "run.jsonl"]).is_ok());
    }

    #[test]
    fn parses_robustness_flags() {
        let cli =
            Cli::parse_from(["--faults", "0.25", "--checkpoint", "run.jsonl", "--resume"]).unwrap();
        assert_eq!(cli.faults, Some(0.25));
        assert_eq!(cli.checkpoint.as_deref(), Some("run.jsonl"));
        assert!(cli.resume);
        let cli = Cli::parse_from(Vec::<String>::new()).unwrap();
        assert_eq!(cli.faults, None);
        assert!(cli.checkpoint.is_none());
        assert!(!cli.resume);
    }

    #[test]
    fn parses_validation_modes() {
        let cli = Cli::parse_from(Vec::<String>::new()).unwrap();
        assert_eq!(cli.validate, ValidationMode::Lenient);
        let cli = Cli::parse_from(["--validate", "strict"]).unwrap();
        assert_eq!(cli.validate, ValidationMode::Strict);
        let cli = Cli::parse_from(["--validate", "off"]).unwrap();
        assert_eq!(cli.validate, ValidationMode::Off);
        assert!(Cli::parse_from(["--validate"]).is_err());
        assert!(Cli::parse_from(["--validate", "paranoid"]).is_err());
    }

    #[test]
    fn parses_trace_specs() {
        let cli = Cli::parse_from(Vec::<String>::new()).unwrap();
        assert!(cli.trace.is_none());
        let cli = Cli::parse_from(["--trace", "out/run.json"]).unwrap();
        assert_eq!(
            cli.trace,
            Some(TraceSpec {
                path: Some("out/run.json".into()),
                sample: 1,
            })
        );
        let cli = Cli::parse_from(["--trace", "out/run.json:sample=25"]).unwrap();
        assert_eq!(
            cli.trace,
            Some(TraceSpec {
                path: Some("out/run.json".into()),
                sample: 25,
            })
        );
        // Empty path = default location; sampling still applies.
        let cli = Cli::parse_from(["--trace", ":sample=10"]).unwrap();
        assert_eq!(
            cli.trace,
            Some(TraceSpec {
                path: None,
                sample: 10,
            })
        );
        // Windows-style / colon-bearing paths parse as plain paths.
        let spec: TraceSpec = "dir:with:colons/t.json".parse().unwrap();
        assert_eq!(spec.path.as_deref(), Some("dir:with:colons/t.json"));
        assert_eq!(spec.sample, 1);
    }

    #[test]
    fn rejects_malformed_trace_specs() {
        assert!(Cli::parse_from(["--trace"]).is_err());
        assert!(Cli::parse_from(["--trace", "x.json:sample=0"]).is_err());
        assert!(Cli::parse_from(["--trace", "x.json:sample=abc"]).is_err());
        assert!(Cli::parse_from(["--trace", "x.json:sample=-3"]).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let cli = Cli::parse_from(Vec::<String>::new()).unwrap();
        assert!(cli.metrics_addr.is_none());
        assert!(cli.progress.is_none());
        assert!(cli.watchdog.is_none());
        assert!(cli.workers.is_none());

        let cli = Cli::parse_from([
            "--metrics-addr",
            "127.0.0.1:0",
            "--progress",
            "--watchdog",
            "--workers",
            "4",
        ])
        .unwrap();
        assert_eq!(cli.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.progress, Some(None));
        assert_eq!(cli.watchdog.as_deref(), Some(""));
        assert_eq!(cli.workers, Some(4));

        let cli = Cli::parse_from(["--progress=run.jsonl", "--watchdog=strict,stall=10"]).unwrap();
        assert_eq!(cli.progress, Some(Some("run.jsonl".into())));
        assert_eq!(cli.watchdog.as_deref(), Some("strict,stall=10"));
    }

    #[test]
    fn rejects_malformed_observability_flags() {
        assert!(Cli::parse_from(["--metrics-addr"]).is_err());
        assert!(Cli::parse_from(["--progress="]).is_err());
        assert!(Cli::parse_from(["--watchdog=bogus=1"]).is_err());
        assert!(Cli::parse_from(["--watchdog=stall=abc"]).is_err());
        assert!(Cli::parse_from(["--workers", "0"]).is_err());
        assert!(Cli::parse_from(["--workers", "x"]).is_err());
    }

    #[test]
    fn parses_chaos_and_deadline_flags() {
        let cli = Cli::parse_from(Vec::<String>::new()).unwrap();
        assert!(cli.chaos.is_none());
        assert!(cli.deadline.is_none());

        let cli = Cli::parse_from(["--chaos", "0.1", "--deadline", "2.5"]).unwrap();
        assert_eq!(cli.chaos, Some(ChaosConfig::scaled(0.1)));
        assert_eq!(cli.deadline, Some(2.5));

        let cli = Cli::parse_from(["--chaos", "panic=0.5,kill-after=3,seed=7"]).unwrap();
        let chaos = cli.chaos.expect("chaos parsed");
        assert!((chaos.worker_panic - 0.5).abs() < 1e-12);
        assert_eq!(chaos.kill_after_appends, Some(3));
        assert_eq!(chaos.seed, 7);

        assert!(Cli::parse_from(["--chaos"]).is_err());
        assert!(Cli::parse_from(["--chaos", "bogus=1"]).is_err());
        assert!(Cli::parse_from(["--chaos", "1.5"]).is_err());
        assert!(Cli::parse_from(["--deadline"]).is_err());
        assert!(Cli::parse_from(["--deadline", "-1"]).is_err());
        assert!(Cli::parse_from(["--deadline", "soon"]).is_err());
        assert!(Cli::parse_from(["--deadline", "0"]).is_ok());
    }

    #[test]
    fn fault_intensity_must_be_a_probability() {
        assert!(Cli::parse_from(["--faults", "1.5"]).is_err());
        assert!(Cli::parse_from(["--faults", "-0.1"]).is_err());
        assert!(Cli::parse_from(["--faults", "0.0"]).is_ok());
        assert!(Cli::parse_from(["--faults", "1.0"]).is_ok());
    }
}
