//! Extension experiment: cautious-user *selection* ablation.
//!
//! The paper selects cautious users from the degree band `[10, 100]` as
//! an independent set. How sensitive are the results to that choice?
//! This binary compares three defender-side placements of the same
//! number of cautious (high-profile) users on a Facebook-like network:
//!
//! * `degree-band` — the paper's protocol;
//! * `inner-core`  — users of the densest k-core (deeply embedded);
//! * `uniform`     — uniformly random users of degree ≥ 2.
//!
//! Deeply embedded users have many mutual-friend channels, so their
//! thresholds are easier to reach — placement matters as much as the
//! threshold itself.

use accu_core::policy::{Abm, AbmWeights};
use accu_core::{
    run_attack_with, AccuInstance, AccuInstanceBuilder, AttackOptions, EpisodeScratch, UserClass,
};
use accu_datasets::{greedy_independent_set, select_cautious_users, DatasetSpec, ProtocolConfig};
use accu_experiments::output::{fnum, Table};
use accu_experiments::{Cli, Telemetry};
use osn_graph::algo::core_numbers;
use osn_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the instance with the given cautious set (paper parameters
/// otherwise). `degrees` are the graph's degrees, read before the move.
fn instance_with_cautious(
    graph: Graph,
    degrees: &[usize],
    cautious: &[NodeId],
    cfg: &ProtocolConfig,
    rng: &mut StdRng,
) -> AccuInstance {
    let n = graph.node_count();
    let m = graph.edge_count();
    let mut builder = AccuInstanceBuilder::new(graph)
        .edge_probabilities((0..m).map(|_| rng.gen_range(0.0..1.0)).collect())
        .user_classes(
            (0..n)
                .map(|_| UserClass::reckless(rng.gen_range(0.0..1.0)))
                .collect(),
        );
    for &v in cautious {
        builder = builder
            .user_class(
                v,
                UserClass::cautious(cfg.threshold_for_degree(degrees[v.index()])),
            )
            .benefits(v, cfg.cautious_friend_benefit, cfg.fof_benefit);
    }
    builder.build().expect("valid instance")
}

fn main() {
    let cli = Cli::parse();
    let tel = Telemetry::from_cli(&cli, "selection_ablation");
    let k = cli.budget.unwrap_or(150);
    let runs = cli.runs.unwrap_or(10);
    let count = 20usize;
    let cfg = ProtocolConfig {
        cautious_count: count,
        ..ProtocolConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(cli.seed);
    let graph = DatasetSpec::facebook()
        .scaled(cli.scale.unwrap_or(0.2))
        .generate(&mut rng)
        .expect("generation");
    let degrees: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
    let cores = core_numbers(&graph);

    // Three placements of `count` cautious users.
    let band = select_cautious_users(&graph, cfg.degree_band, count, &mut rng);
    let mut by_core: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
    by_core.sort_by_key(|v| std::cmp::Reverse(cores[v.index()]));
    let core_set = greedy_independent_set(&graph, &by_core, count);
    let mut shuffled: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) >= 2).collect();
    for i in (1..shuffled.len()).rev() {
        let j = rng.gen_range(0..=i);
        shuffled.swap(i, j);
    }
    let uniform = greedy_independent_set(&graph, &shuffled, count);

    println!(
        "Cautious-placement ablation: {} users, {} cautious each, ABM k={k}, {runs} runs\n",
        graph.node_count(),
        count
    );
    let mut table = Table::new([
        "placement",
        "mean degree",
        "mean core",
        "E[benefit]",
        "E[cautious falls]",
        "exposure %",
    ]);
    for (name, set) in [
        ("degree-band", &band),
        ("inner-core", &core_set),
        ("uniform", &uniform),
    ] {
        let inst = instance_with_cautious(graph.clone(), &degrees, set, &cfg, &mut rng);
        let mut benefit = 0.0;
        let mut falls = 0.0;
        let mut abm = Abm::with_recorder(AbmWeights::balanced(), tel.recorder());
        let mut eval_rng = StdRng::seed_from_u64(cli.seed ^ 0x5151);
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
            falls += out.cautious_friends as f64;
        }
        let mean_deg =
            set.iter().map(|v| degrees[v.index()] as f64).sum::<f64>() / set.len().max(1) as f64;
        let mean_core =
            set.iter().map(|v| cores[v.index()] as f64).sum::<f64>() / set.len().max(1) as f64;
        table.row([
            name.to_string(),
            fnum(mean_deg),
            fnum(mean_core),
            fnum(benefit / runs as f64),
            fnum(falls / runs as f64),
            format!(
                "{:.0}%",
                100.0 * falls / (runs as f64 * set.len().max(1) as f64)
            ),
        ]);
    }
    table.print();
    match table.write_csv("selection_ablation") {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
