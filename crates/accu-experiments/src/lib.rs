//! # accu-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! ACCU paper. The library provides the shared machinery (CLI parsing,
//! scaling, the parallel runner, table/CSV output); one binary per
//! experiment sweep lives under `src/bin/`, and a figure drawn from
//! another figure's cells is written by that figure's binary. The
//! runner runs a lineup — cells over the same sampled networks — with
//! [`run_lineup_with`] ([`run_policy_with`] is the one-cell lineup),
//! configured by a [`RunOptions`] bundle whose default is the plain
//! uninstrumented run; each worker generates a network once and runs
//! every cell on it. The runner-driven binaries (fig2, fig4, fig6,
//! `extra_baselines`, `fault_ablation`) run each figure group's cells as
//! one lineup through [`Telemetry::run`], which passes every runner flag.
//!
//! | Binary                | Paper artifact |
//! |-----------------------|----------------|
//! | `table1`              | Table I — dataset statistics |
//! | `fig1_counterexample` | Fig. 1 — non-submodularity example |
//! | `fig2`                | Fig. 2 — benefit vs number of requests; Fig. 3 — marginal benefit split by user class, from fig2's ABM cells |
//! | `fig4`                | Fig. 4 — benefit and #cautious friends vs `w_I`; Fig. 5 — fraction of requests sent to cautious users, from three of its cells |
//! | `fig6`                | Figs. 6 and 7 — benefit and #cautious-friends heat maps (benefit × threshold), from one sweep |
//!
//! Extension experiments beyond the paper:
//!
//! | Binary            | Extension |
//! |-------------------|-----------|
//! | `extra_baselines` | Fig. 2 with pure greedy + betweenness/closeness/eigenvector baselines |
//! | `theory_report`   | λ, Lemma 4, Theorem 1 bound, OPT vs greedy on small instances |
//! | `defense_report`  | at-risk cautious users, gatekeepers, risk-vs-exposure correlation |
//! | `multibot`        | rate-limited collaborative bots under a fixed total budget |
//! | `hesitant`        | the §III-B two-probability cautious model: benefit + finite curvature bound vs `q₁` |
//! | `noise_ablation`  | robustness of ABM to noisy probability knowledge (belief-mismatch simulation) |
//! | `selection_ablation` | cautious-user placement: degree band vs inner k-core vs uniform |
//! | `acceptance_models` | threshold vs hesitant vs linear acceptance: how much harder the paper's model makes the attack |
//! | `fault_ablation`  | Fig. 2's policy comparison under increasing platform-fault intensity |
//!
//! Every binary accepts `--paper` for the full-scale configuration and
//! writes CSV output under `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
pub mod chaosfs;
pub mod chart;
mod checkpoint;
mod cli;
pub mod output;
pub mod replay;
mod runner;
mod scale;
pub mod telemetry;

pub use checkpoint::Checkpoint;
pub use cli::{Cli, CliError, TraceSpec};
pub use runner::{
    run_lineup_with, run_policy_with, runner_metrics, FigureRun, NetworkFailure, PolicyKind,
    RunOptions, RunReport, RunnerError, DEADLINE_MIN_NETWORKS,
};
pub use scale::ExperimentScale;
pub use telemetry::Telemetry;
