//! Extension experiment: the generalized two-probability cautious model
//! (paper §III-B).
//!
//! Replaces every deterministic cautious user (`q₁ = 0, q₂ = 1`) with a
//! hesitant user (`q₁ > 0`) and sweeps `q₁`, reporting: the attacker's
//! benefit, how many threshold-gated users fall, and the now-finite
//! curvature guarantee `1 − (1 − 1/(δk))^k` with `δ = q₂/q₁` — making
//! the paper's discussion ("in practice δ is likely unbounded since
//! q₁ = 0 is plausible") quantitative.

use accu_core::policy::{Abm, AbmWeights};
use accu_core::theory::{curvature_ratio, two_probability_delta_of};
use accu_core::{run_attack_with, AccuInstance, AttackOptions, EpisodeScratch, UserClass};
use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use accu_experiments::output::{fnum, Table};
use accu_experiments::{Cli, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rebuilds the instance with every cautious user converted to a
/// hesitant user with below-threshold probability `q1`.
fn with_hesitant(instance: &AccuInstance, q1: f64) -> AccuInstance {
    let mut builder = instance.to_builder();
    for &v in instance.cautious_users() {
        if let UserClass::Cautious { threshold } = instance.user_class(v) {
            builder = builder.user_class(v, UserClass::hesitant(q1, 1.0, threshold));
        }
    }
    builder.build().expect("converted instance is valid")
}

fn main() {
    let cli = Cli::parse();
    let tel = Telemetry::from_cli(&cli, "hesitant");
    let k = cli.budget.unwrap_or(150);
    let runs = cli.runs.unwrap_or(8);
    let mut rng = StdRng::seed_from_u64(cli.seed);
    let graph = DatasetSpec::facebook()
        .scaled(cli.scale.unwrap_or(0.15))
        .generate(&mut rng)
        .expect("generation");
    let protocol = ProtocolConfig {
        cautious_count: 20,
        ..ProtocolConfig::default()
    };
    let base = apply_protocol(graph, &protocol, &mut rng).expect("protocol");
    println!(
        "Two-probability cautious model: {} users ({} threshold-gated), k={k}, {runs} runs\n",
        base.node_count(),
        base.cautious_users().len()
    );

    let mut table = Table::new([
        "q1",
        "δ",
        "curvature ratio",
        "E[benefit]",
        "E[gated friends]",
    ]);
    for &q1 in &[0.0, 0.02, 0.05, 0.1, 0.2, 0.5] {
        let inst = if q1 == 0.0 {
            base.clone()
        } else {
            with_hesitant(&base, q1)
        };
        let delta = two_probability_delta_of(&inst);
        let guarantee = delta.map(|d| curvature_ratio(d, k));
        let mut benefit = 0.0;
        let mut gated = 0.0;
        let mut eval_rng = StdRng::seed_from_u64(cli.seed ^ 0xABCD);
        let mut abm = Abm::with_recorder(AbmWeights::balanced(), tel.recorder());
        let opts = AttackOptions {
            recorder: tel.recorder(),
            ..AttackOptions::default()
        };
        let mut scratch = EpisodeScratch::new();
        for _ in 0..runs {
            scratch.realization.sample_into(&inst, &mut eval_rng);
            let out = run_attack_with(&inst, &mut abm, k, &opts, &mut scratch)
                .expect("exact knowledge cannot mismatch");
            benefit += out.total_benefit;
            gated += out.cautious_friends as f64;
        }
        table.row([
            fnum(q1),
            delta.map(fnum).unwrap_or_else(|| "∞".into()),
            guarantee.map(fnum).unwrap_or_else(|| "0 (vacuous)".into()),
            fnum(benefit / runs as f64),
            fnum(gated / runs as f64),
        ]);
    }
    table.print();
    match table.write_csv("hesitant") {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    println!(
        "\nq1 = 0 is the paper's deterministic model (unbounded δ, vacuous curvature bound);\n\
         small positive q1 already restores a nonzero guarantee and lets some gated users\n\
         fall to direct requests."
    );

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
