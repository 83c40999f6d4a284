//! Extension experiment: acceptance-model comparison.
//!
//! The ACCU paper's core modeling claim is that high-profile users
//! behave *differently* from the probabilistic models of earlier work.
//! This binary puts the three model families head-to-head on the same
//! Facebook-like topology with the same high-value users:
//!
//! * `threshold` — the paper's deterministic cautious model (θ = 30% of
//!   degree);
//! * `hesitant`  — the §III-B generalization (`q₁ = 0.05` below θ);
//! * `linear`    — the earlier literature's empirical model
//!   (`q = min(1, 0.1 + 0.05·mutual)` for high-value users).
//!
//! Reported per model: ABM's benefit, how many high-value users fall,
//! and the pure-greedy comparison — quantifying how much *harder* the
//! paper's model makes the attack.

use accu_core::policy::{pure_greedy, Abm, AbmWeights, Policy};
use accu_core::{run_attack_with, AccuInstance, AttackOptions, EpisodeScratch, UserClass};
use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use accu_experiments::output::{fnum, Table};
use accu_experiments::{Cli, Telemetry};
use osn_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Swaps every cautious user's class for the given family, preserving
/// thresholds/benefits.
fn with_model(base: &AccuInstance, family: &str) -> AccuInstance {
    let mut builder = base.to_builder();
    for &v in base.cautious_users() {
        if let UserClass::Cautious { threshold } = base.user_class(v) {
            let class = match family {
                "threshold" => UserClass::cautious(threshold),
                "hesitant" => UserClass::hesitant(0.05, 1.0, threshold),
                "linear" => UserClass::mutual_linear(0.1, 0.05),
                other => panic!("unknown family {other}"),
            };
            builder = builder.user_class(v, class);
        }
    }
    builder.build().expect("converted instance is valid")
}

fn main() {
    let cli = Cli::parse();
    let tel = Telemetry::from_cli(&cli, "acceptance_models");
    let k = cli.budget.unwrap_or(150);
    let runs = cli.runs.unwrap_or(10);
    let mut rng = StdRng::seed_from_u64(cli.seed);
    let graph = DatasetSpec::facebook()
        .scaled(cli.scale.unwrap_or(0.2))
        .generate(&mut rng)
        .expect("generation");
    let protocol = ProtocolConfig {
        cautious_count: 20,
        ..ProtocolConfig::default()
    };
    let base = apply_protocol(graph, &protocol, &mut rng).expect("protocol");
    let high_value: Vec<NodeId> = base.cautious_users().to_vec();
    println!(
        "Acceptance-model comparison: {} users, {} high-value, ABM/Greedy k={k}, {runs} runs\n",
        base.node_count(),
        high_value.len()
    );

    let mut table = Table::new([
        "model",
        "ABM benefit",
        "ABM HV falls",
        "Greedy benefit",
        "Greedy HV falls",
    ]);
    for family in ["linear", "hesitant", "threshold"] {
        let inst = with_model(&base, family);
        let mut cells = vec![family.to_string()];
        for make in [
            || Box::new(Abm::new(AbmWeights::balanced())) as Box<dyn Policy>,
            || Box::new(pure_greedy()) as Box<dyn Policy>,
        ] {
            let mut policy = make();
            let mut eval_rng = StdRng::seed_from_u64(cli.seed ^ 0x0DDB);
            let mut benefit = 0.0;
            let mut falls = 0.0;
            let opts = AttackOptions {
                recorder: tel.recorder(),
                ..AttackOptions::default()
            };
            let mut scratch = EpisodeScratch::new();
            for _ in 0..runs {
                scratch.realization.sample_into(&inst, &mut eval_rng);
                let out = run_attack_with(&inst, policy.as_mut(), k, &opts, &mut scratch)
                    .expect("exact knowledge cannot mismatch");
                benefit += out.total_benefit;
                falls += high_value
                    .iter()
                    .filter(|v| out.friends.contains(v))
                    .count() as f64;
            }
            cells.push(fnum(benefit / runs as f64));
            cells.push(fnum(falls / runs as f64));
        }
        table.row(cells);
    }
    table.print();
    match table.write_csv("acceptance_models") {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    println!(
        "\n(the paper's deterministic threshold model is the hardest for the attacker — the\n\
         high-value population only falls via deliberate mutual-friend building, which is\n\
         where ABM's indirect potential earns its advantage over pure greedy)"
    );

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
