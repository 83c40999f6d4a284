//! Regenerates **Fig. 4** — total benefit and number of cautious friends
//! obtained by ABM on the Twitter dataset, varying `w_I` from 0 to 0.6
//! with `w_D = 1 − w_I`.
//!
//! The paper's findings: cautious-friend count grows monotonically with
//! `w_I`, but benefit peaks at an intermediate `w_I` (0.2 in their runs)
//! — over-emphasizing cautious users hurts overall benefit. `w_I = 0` is
//! the pure greedy of earlier adaptive-crawling work.

use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::chart::Chart;
use accu_experiments::output::series_table;
use accu_experiments::{Cli, ExperimentScale, PolicyKind, Telemetry};

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fig4");
    println!(
        "Fig. 4: benefit and #cautious friends vs w_I (Twitter, {})",
        scale.describe()
    );

    let wis: Vec<f64> = (0..=6).map(|i| i as f64 / 10.0).collect();
    let mut benefit = Vec::with_capacity(wis.len());
    let mut cautious = Vec::with_capacity(wis.len());
    for &wi in &wis {
        let figure = scale.figure_run(DatasetSpec::twitter(), ProtocolConfig::default());
        let acc = tel.run(&figure, PolicyKind::abm_with_indirect(wi));
        benefit.push(acc.mean_total_benefit());
        cautious.push(acc.mean_cautious_friends());
        println!(
            "  w_I={wi:.1}: benefit {:.1}, cautious friends {:.2}",
            acc.mean_total_benefit(),
            acc.mean_cautious_friends()
        );
    }

    println!();
    Chart::new(&wis)
        .series("benefit", &benefit)
        .size(48, 12)
        .labels("w_I", "benefit")
        .print();
    println!();
    let table = series_table(
        "w_I",
        &wis,
        &[
            ("benefit", benefit.clone()),
            ("cautious_friends", cautious.clone()),
        ],
    );
    table.print();
    tel.write_csv(&table, "fig4_twitter");

    let best = wis
        .iter()
        .zip(&benefit)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(w, b)| (*w, *b))
        .unwrap();
    println!(
        "\nbenefit peaks at w_I = {:.1} ({:.1}); pure greedy (w_I=0) gets {:.1}",
        best.0, best.1, benefit[0]
    );
    let monotone = cautious.windows(2).all(|w| w[1] >= w[0] - 1e-9);
    println!(
        "cautious friends grow monotonically with w_I: {}",
        if monotone {
            "yes"
        } else {
            "no (noise at this scale)"
        }
    );

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
